"""Exact computations on explicit finite permutation groups.

This is the desk-scale verifier: closures, maximal abelian subgroups,
Jordan indexes and exact Jordan constants are computed by exhaustive and
therefore trustworthy methods, and compared against the symbolic bounds.

Group files: first line "degree N", then one generator per line in
disjoint-cycle notation on the points 1..N, e.g. "(1 2 3)(4 5)"; fixed
points are omitted and '#' starts a comment.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .abelian import invariants_from_orders
from .boundvalue import BoundValue
from .caps import Caps, CapExceeded, DEFAULT_CAPS

Images = Tuple[int, ...]  # 0-indexed image tuple


@dataclass(frozen=True)
class Permutation:
    images: Images

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(x) = self(other(x))
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        out = [0] * self.degree
        for i, img in enumerate(self.images):
            out[img] = i
        return Permutation(tuple(out))

    def order(self) -> int:
        order = 1
        for cyc in self.cycles():
            k = len(cyc)
            g = _gcd(order, k)
            order = order // g * k
        return order

    def cycles(self) -> List[Tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        images = list(range(degree))
        body = text.strip()
        if body in ("()", ""):
            return cls(tuple(images))
        for part in re.findall(r"\(([^()]*)\)", body):
            points = [int(tok) for tok in part.replace(",", " ").split()]
            if any(p < 1 or p > degree for p in points):
                raise ValueError(f"point out of range 1..{degree} in cycle ({part})")
            if len(set(points)) != len(points):
                raise ValueError(f"repeated point in cycle ({part})")
            for a, b in zip(points, points[1:] + points[:1]):
                images[a - 1] = b - 1
        leftover = re.sub(r"\([^()]*\)", "", body).strip()
        if leftover:
            raise ValueError(f"cannot parse cycles {text!r}")
        return cls(tuple(images))


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: Tuple[Permutation, ...]
    elements: FrozenSet[Images]

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_abelian(self) -> bool:
        gens = [g.images for g in self.generators]
        for a in gens:
            for b in gens:
                if _compose(a, b) != _compose(b, a):
                    return False
        return True

    def __str__(self):
        return f"<degree {self.degree}, order {self.order}>"


def _compose(a: Images, b: Images) -> Images:
    return tuple(a[b[i]] for i in range(len(a)))


def closure(generators: Sequence[Permutation], degree: Optional[int] = None,
            caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Full element set by breadth-first multiplication."""
    if degree is None:
        if not generators:
            raise ValueError("degree required for the trivial group")
        degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators act on different point sets")
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    gen_images = [g.images for g in generators]
    while frontier:
        new = []
        for e in frontier:
            for g in gen_images:
                x = _compose(e, g)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
                    if len(elems) > caps.closure_order:
                        raise CapExceeded("closure order", caps.closure_order,
                                          observed=len(elems), module="finite-groups")
        frontier = new
    return PermGroup(degree, tuple(generators), frozenset(elems))


# --- indexed element tables ---------------------------------------------------


class _GroupTable:
    """Multiplication and commutation tables over indexed elements.

    Subgroups and centralizers become integer bitmasks, which makes the
    subgroup lattice and the centralizer-refinement search cheap.
    `abelian_memo` maps a nonabelian subgroup mask to the largest abelian
    subgroup order inside it.
    """

    __slots__ = ("elements", "index", "mul", "commute", "identity", "abelian_memo")

    def __init__(self, elements: FrozenSet[Images]):
        self.elements = sorted(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.identity = self.index[tuple(range(len(self.elements[0])))]
        self.mul = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            row = self.mul[i]
            for j, b in enumerate(self.elements):
                row[j] = self.index[_compose(a, b)]
        self.commute = []
        for i in range(n):
            mask = 0
            row = self.mul[i]
            for j in range(n):
                if row[j] == self.mul[j][i]:
                    mask |= 1 << j
            self.commute.append(mask)
        self.abelian_memo: Dict[int, int] = {}

    def closure_mask(self, gen_ids: Iterable[int]) -> int:
        gen_ids = list(gen_ids)
        known = 1 << self.identity
        frontier = [self.identity]
        while frontier:
            new = []
            for x in frontier:
                row = self.mul[x]
                for g in gen_ids:
                    y = row[g]
                    if not known >> y & 1:
                        known |= 1 << y
                        new.append(y)
            frontier = new
        return known

    def mask_of(self, elems: Iterable[Images]) -> int:
        mask = 0
        for e in elems:
            mask |= 1 << self.index[e]
        return mask

    def elems_of(self, mask: int) -> FrozenSet[Images]:
        return frozenset(self.elements[i] for i in _bits(mask))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the tables are quadratic in the order; past this the searches they back
# are out of desk scale anyway
_TABLE_MAX_ORDER = 4096


def _table_for(group: PermGroup) -> _GroupTable:
    if group.order > _TABLE_MAX_ORDER:
        raise CapExceeded("exact-search group order", _TABLE_MAX_ORDER,
                          observed=group.order, module="finite-groups")
    return _table(group.elements)


@functools.lru_cache(maxsize=None)
def _table(elements: FrozenSet[Images]) -> _GroupTable:
    return _GroupTable(elements)


# --- abelian measurements ---------------------------------------------------


def _max_abelian_mask(table: _GroupTable, mask: int) -> int:
    """Centralizer-refinement search on a subgroup bitmask.

    Maximal abelian subgroups are exactly the abelian iterated centralizers:
    while a centralizer C is nonabelian, every maximal abelian subgroup of C
    contains some non-central element g of C, hence lies inside the smaller
    centralizer of g in C.
    """
    memo = table.abelian_memo

    def refine(m: int) -> int:
        noncentral = [i for i in _bits(m) if m & ~table.commute[i]]
        if not noncentral:
            return m.bit_count()
        hit = memo.get(m)
        if hit is not None:
            return hit
        best = 0
        for i in noncentral:
            best = max(best, refine(m & table.commute[i]))
        memo[m] = best
        return best

    return refine(mask)


def max_abelian_order(group: PermGroup) -> int:
    """Largest order of an abelian subgroup."""
    table = _table_for(group)
    return _max_abelian_mask(table, table.mask_of(group.elements))


def jordan_index(group: PermGroup) -> int:
    """Group order over the largest abelian subgroup order; abelian
    subgroups are not required to be normal."""
    best = max_abelian_order(group)
    if group.order % best:
        raise AssertionError("abelian subgroup order does not divide group order")
    return group.order // best


def _subgroup_masks(table: _GroupTable) -> List[int]:
    """All subgroups as bitmasks: cyclic subgroups closed under pairwise
    joins, with small generating sets carried along."""
    n = len(table.elements)
    gens_of: Dict[int, List[int]] = {}
    for i in range(n):
        mask = table.closure_mask([i])
        if mask not in gens_of:
            gens_of[mask] = [i]
    subs = set(gens_of)
    frontier = list(gens_of)
    while frontier:
        new = []
        for a in frontier:
            for b in list(subs):
                union = a | b
                if union == a or union == b:
                    continue  # nested: the join is the larger one
                joined = table.closure_mask(gens_of[a] + gens_of[b])
                if joined not in subs:
                    subs.add(joined)
                    gens_of[joined] = gens_of[a] + gens_of[b]
                    new.append(joined)
        frontier = new
    return sorted(subs, key=lambda m: (m.bit_count(), m))


def all_subgroups(group: PermGroup) -> List[FrozenSet[Images]]:
    """All subgroups, smallest first."""
    table = _table_for(group)
    return sorted((table.elems_of(m) for m in _subgroup_masks(table)),
                  key=lambda s: (len(s), sorted(s)))


def jordan_constant(group: PermGroup, caps: Caps = DEFAULT_CAPS) -> int:
    """Exact smallest Jordan constant: the largest Jordan index over all
    subgroups."""
    if group.order > caps.constant_group_order:
        raise CapExceeded("exact Jordan constant group order",
                          caps.constant_group_order,
                          observed=jordan_index(group), module="finite-groups")
    table = _table_for(group)
    best = 1
    for mask in _subgroup_masks(table):
        size = mask.bit_count()
        index = size // _max_abelian_mask(table, mask)
        best = max(best, index)
    return best


def abelian_invariants(group: PermGroup) -> Tuple[int, ...]:
    """Invariant factors of an abelian permutation group."""
    if not group.is_abelian():
        raise ValueError("group is not abelian")
    orders = [Permutation(im).order() for im in group.elements]
    return invariants_from_orders(orders)


def abelian_rank(group: PermGroup) -> int:
    """Minimal number of generators of an abelian group."""
    return len(abelian_invariants(group))


# --- bound verification ------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    context: str
    bound: BoundValue
    order: int
    jordan_index: int
    jordan_constant: Optional[int]
    passed: bool

    def lines(self, max_digits: int = 10_000) -> List[str]:
        out = [f"group order {self.order}",
               f"jordan index {self.jordan_index}",
               f"jordan constant {self.jordan_constant if self.jordan_constant is not None else 'not computed (cap)'}",
               f"context {self.context}",
               f"bound {self.bound.render(max_digits)}",
               "PASS" if self.passed else "FAIL"]
        return out

    def to_json(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> dict:
        return {
            "context": self.context,
            "order": str(self.order),
            "jordan_index": str(self.jordan_index),
            "jordan_constant": None if self.jordan_constant is None else str(self.jordan_constant),
            "bound": self.bound.to_json(max_digits),
            "pass": self.passed,
        }


def context_bound(context: str, caps: Caps = DEFAULT_CAPS) -> BoundValue:
    """Bound for a verification context 'gl_dim:n', 'connected_dim:n' or
    'aut0_dim:n'."""
    from . import calculus  # local import to avoid a cycle at module load

    m = re.fullmatch(r"(gl_dim|connected_dim|aut0_dim)\s*[:= ]\s*(\d+)", context.strip())
    if not m:
        raise ValueError(f"bad context {context!r}; expected e.g. 'gl_dim:2'")
    kind, n = m.group(1), int(m.group(2))
    if kind == "gl_dim":
        return BoundValue.from_int(calculus.gl_jordan_bound(n))
    if kind == "connected_dim":
        return calculus.connected_jordan_bound(n, caps)[0]
    return calculus.aut0_jordan_bound(n, caps)[0]


def verify_bound(group: PermGroup, context: str, caps: Caps = DEFAULT_CAPS) -> VerifyReport:
    """Compare the exact Jordan data of an explicit finite group against a
    computed bound.  The caller asserts that the group embeds in the stated
    context; that is not checked here."""
    bound = context_bound(context, caps)
    index = jordan_index(group)
    try:
        constant = jordan_constant(group, caps)
    except CapExceeded:
        constant = None
    checks = [BoundValue.from_int(index).compare(bound) <= 0]
    if constant is not None:
        checks.append(BoundValue.from_int(constant).compare(bound) <= 0)
    return VerifyReport(context=context, bound=bound, order=group.order,
                        jordan_index=index, jordan_constant=constant,
                        passed=all(checks))


# --- group files --------------------------------------------------------------


def parse_group_text(text: str) -> Tuple[int, List[Permutation]]:
    degree = None
    gens: List[Permutation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise ValueError(f"line {lineno}: expected 'degree N', got {line!r}")
            degree = int(m.group(1))
            if degree < 1:
                raise ValueError(f"line {lineno}: degree must be positive")
            continue
        gens.append(Permutation.from_cycles(line, degree))
    if degree is None:
        raise ValueError("missing 'degree N' header")
    return degree, gens


def load_group(path: str, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    with open(path, "r", encoding="utf-8") as fh:
        degree, gens = parse_group_text(fh.read())
    return closure(gens, degree=degree, caps=caps)


def direct_product(a: PermGroup, b: PermGroup, caps: Caps = DEFAULT_CAPS) -> PermGroup:
    """Direct product acting on the disjoint union of the point sets."""
    degree = a.degree + b.degree
    gens: List[Permutation] = []
    for g in a.generators:
        gens.append(Permutation(g.images + tuple(range(a.degree, degree))))
    for g in b.generators:
        gens.append(Permutation(tuple(range(a.degree)) + tuple(x + a.degree for x in g.images)))
    return closure(gens, degree=degree, caps=caps)
