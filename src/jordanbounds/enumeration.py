"""Isogeny classes of connected semisimple groups of bounded dimension.

Enumerates all multisets of simple types with total dimension below a cap,
all central subgroups of each simply connected form, and for every quotient
the minimal dimension of a faithful representation.  The aggregates feed
the bound calculus: the embedding dimension (the smallest general linear
group receiving every semisimple group of dimension <= n) and the largest
possible center order.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from . import abelian
from .abelian import FiniteAbelianGroup
from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .rootsystems import SimpleType, admissible_types, build_root_system

Element = Tuple[int, ...]


@dataclass(frozen=True)
class SemisimpleType:
    """A multiset of simple types: the simply connected semisimple groups."""

    factors: Tuple[SimpleType, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def center_moduli(self) -> Tuple[int, ...]:
        """Coordinate moduli of the center: one block per simple factor."""
        out: List[int] = []
        for f in self.factors:
            out.extend(f.center_factors)
        return tuple(out)

    @property
    def center_blocks(self) -> List[Tuple[int, int]]:
        """Coordinate span (start, stop) of each factor inside center_moduli."""
        blocks = []
        at = 0
        for f in self.factors:
            k = len(f.center_factors)
            blocks.append((at, at + k))
            at += k
        return blocks

    @property
    def center(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup.from_moduli(self.center_moduli)

    @property
    def center_order(self) -> int:
        return abelian.order_of_moduli(self.center_moduli)

    def __str__(self):
        if not self.factors:
            return "1"
        return "x".join(str(f) for f in self.factors)


@dataclass(frozen=True)
class IsogenyClass:
    """A quotient of a simply connected semisimple group by a central subgroup."""

    base: SemisimpleType
    kernel: FrozenSet[Element]

    def __post_init__(self):
        moduli = self.base.center_moduli
        zero = abelian.zero_of(moduli)
        if zero not in self.kernel:
            raise ValueError("kernel must contain the identity")
        closed = abelian.subgroup_closure(self.kernel, moduli)
        if closed != self.kernel:
            raise ValueError("kernel is not closed under the group law")

    @classmethod
    def from_generators(cls, base: SemisimpleType, gens: Iterable[Element]) -> "IsogenyClass":
        return cls(base, abelian.subgroup_closure(gens, base.center_moduli))

    @property
    def dim(self) -> int:
        return self.base.dim

    @functools.cached_property
    def kernel_generators(self) -> Tuple[Element, ...]:
        return abelian.minimal_generators(self.kernel, self.base.center_moduli)

    @property
    def is_simply_connected(self) -> bool:
        return len(self.kernel) == 1

    @property
    def is_adjoint(self) -> bool:
        return len(self.kernel) == self.base.center_order

    def name(self) -> str:
        base = str(self.base)
        if self.is_simply_connected:
            return base
        if self.is_adjoint:
            return f"{base}/adj"
        return base + "/" + "+".join("(" + ",".join(map(str, g)) + ")"
                                     for g in self.kernel_generators)

    def __str__(self):
        return self.name()


def quotient_center(cls: IsogenyClass) -> FiniteAbelianGroup:
    """Center of the quotient group: the simply connected center modulo the kernel."""
    return FiniteAbelianGroup(
        abelian.quotient_invariants(cls.base.center_moduli, cls.kernel))


def simple_types_up_to_dim(max_dim: int) -> List[SimpleType]:
    # dim always exceeds rank, so scanning ranks up to max_dim is exhaustive
    return sorted((t for t in admissible_types(max_dim) if t.dim <= max_dim),
                  key=lambda t: (t.dim, t.family, t.rank))


def enumerate_semisimple(max_dim: int, caps: Caps = DEFAULT_CAPS) -> List[SemisimpleType]:
    """All semisimple types of total dimension <= max_dim, trivial included."""
    if max_dim < 0:
        raise ValueError("dimension must be non-negative")
    if max_dim > caps.enumeration_dim:
        raise CapExceeded("enumeration dimension", caps.enumeration_dim,
                          observed=max_dim, module="semisimple-enumeration")
    simples = simple_types_up_to_dim(max_dim)
    out: List[SemisimpleType] = []

    def extend(start: int, chosen: List[SimpleType], room: int):
        out.append(SemisimpleType(tuple(chosen)))
        for i in range(start, len(simples)):
            t = simples[i]
            if t.dim <= room:
                chosen.append(t)
                extend(i, chosen, room - t.dim)
                chosen.pop()

    extend(0, [], max_dim)
    return sorted(out, key=lambda s: (s.dim, tuple((f.family, f.rank) for f in s.factors)))


def isogeny_classes(base: SemisimpleType, caps: Caps = DEFAULT_CAPS) -> List[IsogenyClass]:
    moduli = base.center_moduli
    return [IsogenyClass(base, sub) for sub in abelian.all_subgroups(moduli, caps)]


# --- minimal faithful dimension ------------------------------------------


def min_faithful_dim(cls: IsogenyClass, caps: Caps = DEFAULT_CAPS) -> int:
    """Minimal total dimension of a faithful representation of the quotient.

    A representation of the quotient is a multiset of irreducible summands
    of the simply connected cover (one dominant weight per factor, summand
    dimension the product of the factor dimensions) whose central
    characters all vanish on the kernel.  It is faithful exactly when every
    factor acts nontrivially in some summand and the joint central kernel
    is the quotient kernel, nothing more.

    One shortest-path pass per form settles every kernel at once.
    """
    moduli = cls.base.center_moduli
    kernel_mask = 0
    for z in cls.kernel:
        code = 0
        for x, m in zip(z, moduli):
            code = code * m + x  # position of z in lexicographic order
        kernel_mask |= 1 << code
    return _faithful_dims(cls.base, caps)[kernel_mask]


@functools.lru_cache(maxsize=None)
def _faithful_dims(base: SemisimpleType, caps: Caps) -> Dict[int, int]:
    """Minimal faithful dimension of every quotient of one simply connected
    form, keyed by kernel mask (bit i: the i-th center element in
    lexicographic order).

    The center's subgroups are enumerated first, so the center caps trip
    before any search work.  Then Dijkstra over the finite set of states
    (factor-coverage mask, joint-kernel mask) from (0, whole center), one
    summand per edge.  A multiset whose joint kernel is exactly K uses only
    summands whose zero sets contain K, so the distance to (all factors, K)
    is the minimal dimension for G/K.  Every K is reached: the adjoint plus
    one irreducible per generator of the characters of Z/K is faithful.
    """
    count = len(abelian.all_subgroups(base.center_moduli, caps))
    full = (1 << abelian.order_of_moduli(base.center_moduli)) - 1
    target = (1 << len(base.factors)) - 1
    pool = _summand_pool(base)
    dist = {(0, full): 0}
    heap = [(0, 0, full)]
    while heap:
        d, cov, ker = heapq.heappop(heap)
        if dist[cov, ker] < d:
            continue
        for sd, scov, szero in pool:
            nd = d + sd
            state = (cov | scov, ker & szero)
            if nd < dist.get(state, nd + 1):
                dist[state] = nd
                heapq.heappush(heap, (nd, *state))
    table = {ker: d for (cov, ker), d in dist.items() if cov == target}
    if len(table) != count:
        raise AssertionError(f"{base}: {len(table)} kernels reached of {count} subgroups")
    return table


def _summand_pool(base: SemisimpleType) -> List[Tuple[int, int, int]]:
    """Kernel-independent summand candidates for one form.

    Each entry is (dimension, factor-coverage mask, zero-set mask), the zero
    set being the subgroup of the center on which the summand's central
    character vanishes.  Entries sharing coverage and zero set are collapsed
    to the cheapest dimension; the pool is shared by every central kernel.
    Both masks see a factor's weight only through whether it acts and its
    central character, so each factor offers its cheapest weight per pair.
    """
    systems = [build_root_system(f) for f in base.factors]
    nf = len(systems)
    moduli = base.center_moduli
    cells = sorted(abelian.elements_of(moduli))
    ncells = len(cells)
    denom = math.lcm(1, *moduli)
    blocks = base.center_blocks

    # character contribution of one factor weight on every center element
    per: List[List[Tuple[int, int, Tuple[int, ...]]]] = []
    for fi, rs in enumerate(systems):
        lo, hi = blocks[fi]
        rows = []
        for coords, wdim, chars in rs.cheapest_per_character():
            ints = [int(c * denom) % denom for c in chars]
            contrib = tuple(sum(zi * ci for zi, ci in zip(z[lo:hi], ints)) % denom
                            for z in cells)
            rows.append((wdim, 1 if any(coords) else 0, contrib))
        per.append(rows)

    cheapest: Dict[Tuple[int, int], int] = {}

    def build(fi: int, dimprod: int, vals: Tuple[int, ...], cov: int):
        if fi == nf:
            if cov == 0:
                return
            zmask = 0
            for idx in range(ncells):
                if vals[idx] % denom == 0:
                    zmask |= 1 << idx
            k = (cov, zmask)
            if k not in cheapest or dimprod < cheapest[k]:
                cheapest[k] = dimprod
            return
        for wdim, nz, contrib in per[fi]:
            build(fi + 1, dimprod * wdim,
                  tuple(v + c for v, c in zip(vals, contrib)),
                  cov | (nz << fi))

    build(0, 1, (0,) * ncells, 0)
    return sorted((d, cov, zmask) for (cov, zmask), d in cheapest.items())


# --- aggregates ------------------------------------------------------------


def embedding_dim(n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Smallest m such that every connected semisimple group of dimension
    <= n has a faithful m-dimensional representation.

    Convention: 0 for n < 3, where only the trivial group exists.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if n < 3:
        return 0
    return _embedding_dim(n, caps)


@functools.lru_cache(maxsize=None)
def _embedding_dim(n: int, caps: Caps) -> int:
    return max(max(_faithful_dims(base, caps).values())
               for base in enumerate_semisimple(n, caps) if not base.is_trivial)


def max_center_order(n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Largest center order among semisimple groups of dimension <= n.

    Quotient centers never exceed the simply connected one, so the maximum
    is scanned over the simply connected forms.
    """
    best = 1
    for base in enumerate_semisimple(n, caps):
        best = max(best, base.center_order)
    return best


def class_table(n: int, caps: Caps = DEFAULT_CAPS) -> List[dict]:
    """Rows for the JSON export: one per isogeny class of dimension <= n."""
    rows = []
    for base in enumerate_semisimple(n, caps):
        center = [str(d) for d in base.center.factors]
        for cls in isogeny_classes(base, caps):
            rows.append({
                "name": cls.name(),
                "factors": [str(f) for f in base.factors],
                "dim": base.dim,
                "center": list(center),
                "kernel_generators": [list(g) for g in cls.kernel_generators],
                "kernel_order": str(len(cls.kernel)),
                "quotient_center": [str(d) for d in quotient_center(cls).factors],
                "min_faithful_dim": str(min_faithful_dim(cls, caps)),
            })
    return rows
