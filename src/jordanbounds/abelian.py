"""Finite abelian groups in invariant-factor form, and coordinate machinery.

Two layers.  `FiniteAbelianGroup` is the canonical presentation
Z_{d1} x ... x Z_{dk} with d1 | d2 | ... | dk, all > 1.  Underneath,
module-level functions operate on an arbitrary tuple of moduli (one per
coordinate, not necessarily a divisor chain), which is the natural shape
for the center of a product of simple factors: each factor contributes its
own coordinate block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from .caps import Caps, CapExceeded, DEFAULT_CAPS

Element = Tuple[int, ...]
Moduli = Tuple[int, ...]


# --- coordinate-level helpers -------------------------------------------


def zero_of(moduli: Moduli) -> Element:
    return tuple(0 for _ in moduli)


def order_of_moduli(moduli: Moduli) -> int:
    out = 1
    for m in moduli:
        out *= m
    return out


def elements_of(moduli: Moduli) -> Iterator[Element]:
    return itertools.product(*[range(m) for m in moduli])


def add_mod(a: Element, b: Element, moduli: Moduli) -> Element:
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def element_order(a: Element, moduli: Moduli) -> int:
    out = 1
    for x, m in zip(a, moduli):
        if x:
            out = math.lcm(out, m // math.gcd(x, m))
    return out


def subgroup_closure(gens: Iterable[Element], moduli: Moduli) -> FrozenSet[Element]:
    zero = zero_of(moduli)
    elems = {zero}
    frontier = [zero]
    gens = list(gens)
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = add_mod(e, g, moduli)
                if x not in elems:
                    elems.add(x)
                    new.append(x)
        frontier = new
    return frozenset(elems)


def all_subgroups(moduli: Moduli, caps: Caps = DEFAULT_CAPS) -> List[FrozenSet[Element]]:
    """Every subgroup, as an element set, in a deterministic order."""
    return _all_subgroups(moduli, caps)


@functools.lru_cache(maxsize=None)
def _all_subgroups(moduli: Moduli, caps: Caps) -> List[FrozenSet[Element]]:
    order = order_of_moduli(moduli)
    if order > caps.center_order:
        raise CapExceeded("center order", caps.center_order, observed=order,
                          module="abelian")
    elements = sorted(elements_of(moduli))
    # work guard: a closure from k generators costs about k * result order;
    # lattices that explode must fail fast rather than grind to the count cap
    work_budget = 512 * caps.subgroup_count
    work = 0
    subs = {frozenset([zero_of(moduli)])}
    frontier = list(subs)
    while frontier:
        new = []
        for sub in frontier:
            for z in elements:
                if z in sub:
                    continue
                bigger = subgroup_closure(list(sub) + [z], moduli)
                work += len(bigger) * (len(sub) + 1)
                if work > work_budget:
                    raise CapExceeded("subgroup enumeration work", work_budget,
                                      observed=len(subs), module="abelian")
                if bigger not in subs:
                    subs.add(bigger)
                    new.append(bigger)
                    if len(subs) > caps.subgroup_count:
                        raise CapExceeded("subgroup count", caps.subgroup_count,
                                          observed=len(subs), module="abelian")
        frontier = new
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def minimal_generators(elems: FrozenSet[Element], moduli: Moduli) -> Tuple[Element, ...]:
    """Short generating tuple for a subgroup given as an element set."""
    gens: List[Element] = []
    have: FrozenSet[Element] = frozenset([zero_of(moduli)])
    remaining = sorted(elems, key=lambda e: (-element_order(e, moduli), e))
    for e in remaining:
        if e not in have:
            gens.append(e)
            have = subgroup_closure(gens, moduli)
            if len(have) == len(elems):
                break
    return tuple(gens)


def _int_log(n: int, p: int) -> int:
    k = 0
    while n > 1:
        if n % p:
            raise ArithmeticError(f"{n} is not a power of {p}")
        n //= p
        k += 1
    return k


def _partition_from_torsion_counts(orders: Sequence[int], p: int) -> List[int]:
    # counts c_k = #{x : ord(x) | p^k}; parts of the p-type read off the jumps
    parts_ge: List[int] = []
    k = 1
    prev = sum(1 for o in orders if o == 1)
    while True:
        cur = sum(1 for o in orders if p ** k % o == 0)
        jump = cur // prev
        if jump == 1:
            break
        parts_ge.append(_int_log(jump, p))
        prev = cur
        k += 1
    # parts_ge[k-1] = number of parts >= k; expand to the partition itself
    partition = []
    for k in range(len(parts_ge), 0, -1):
        count = parts_ge[k - 1] - (parts_ge[k] if k < len(parts_ge) else 0)
        partition.extend([k] * count)
    partition.sort(reverse=True)
    return partition


def invariants_from_orders(orders: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors of a finite abelian group from its element orders."""
    n = len(orders)
    if n == 1:
        return ()
    primes = []
    rem = n
    d = 2
    while d * d <= rem:
        if rem % d == 0:
            primes.append(d)
            while rem % d == 0:
                rem //= d
        d += 1
    if rem > 1:
        primes.append(rem)
    per_prime: Dict[int, List[int]] = {}
    width = 0
    for p in primes:
        part = _partition_from_torsion_counts(orders, p)
        per_prime[p] = part
        width = max(width, len(part))
    factors = []
    for i in range(width):
        d = 1
        for p, part in per_prime.items():
            if i < len(part):
                d *= p ** part[i]
        factors.append(d)
    # built largest-first; invariant chain is ascending
    return tuple(sorted(factors))


def subgroup_invariants(elems: FrozenSet[Element], moduli: Moduli) -> Tuple[int, ...]:
    return invariants_from_orders([element_order(e, moduli) for e in elems])


def quotient_invariants(moduli: Moduli, sub: FrozenSet[Element]) -> Tuple[int, ...]:
    """Invariant factors of (product of Z_m) / sub."""
    full = order_of_moduli(moduli)
    if full % len(sub):
        raise ValueError("subgroup order does not divide group order")
    # order of a coset x + sub = least k >= 1 with k*x in sub
    orders = []
    seen = set()
    for x in elements_of(moduli):
        rep = min(add_mod(x, s, moduli) for s in sub)
        if rep in seen:
            continue
        seen.add(rep)
        k = 1
        acc = x
        while acc not in sub:
            acc = add_mod(acc, x, moduli)
            k += 1
        orders.append(k)
    return invariants_from_orders(orders)


# --- canonical presentation ----------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Z_{d1} x ... x Z_{dk} with d1 | d2 | ... | dk and every di > 1."""

    factors: Tuple[int, ...] = ()

    def __post_init__(self):
        fs = tuple(int(d) for d in self.factors)
        object.__setattr__(self, "factors", fs)
        for d in fs:
            if d <= 1:
                raise ValueError(f"invariant factor must exceed 1, got {d}")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"invariant factors must form a divisor chain: {fs}")

    @classmethod
    def from_moduli(cls, moduli: Sequence[int]) -> "FiniteAbelianGroup":
        """Canonicalise an arbitrary product of cyclic groups (via CRT)."""
        per_prime: Dict[int, List[int]] = {}
        for m in moduli:
            m = int(m)
            d = 2
            while d * d <= m:
                if m % d == 0:
                    e = 0
                    while m % d == 0:
                        m //= d
                        e += 1
                    per_prime.setdefault(d, []).append(e)
                d += 1
            if m > 1:
                per_prime.setdefault(m, []).append(1)
        if not per_prime:
            return cls(())
        width = max(len(v) for v in per_prime.values())
        factors = []
        for i in range(width):
            d = 1
            for p, exps in per_prime.items():
                exps = sorted(exps, reverse=True)
                if i < len(exps):
                    d *= p ** exps[i]
            factors.append(d)
        return cls(tuple(sorted(factors)))

    @property
    def order(self) -> int:
        return order_of_moduli(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def rank(self) -> int:
        """Minimal number of generators."""
        return len(self.factors)

    def elements(self) -> Iterator[Element]:
        return elements_of(self.factors)

    def add(self, a: Element, b: Element) -> Element:
        return add_mod(a, b, self.factors)

    @property
    def zero(self) -> Element:
        return zero_of(self.factors)

    def element_order(self, a: Element) -> int:
        return element_order(a, self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "x".join(f"Z{d}" for d in self.factors)


@dataclass(frozen=True)
class CenterSubgroup:
    """A subgroup of a coordinate abelian group, kept with its element set."""

    moduli: Moduli
    elements: FrozenSet[Element]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def generators(self) -> Tuple[Element, ...]:
        return minimal_generators(self.elements, self.moduli)

    def as_group(self) -> FiniteAbelianGroup:
        return FiniteAbelianGroup(subgroup_invariants(self.elements, self.moduli))

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __contains__(self, element: Element) -> bool:
        return element in self.elements

    def __str__(self):
        if self.is_trivial:
            return "1"
        return "<" + ", ".join("(" + ",".join(map(str, g)) + ")" for g in self.generators) + ">"
