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
    """The subgroup generated by `gens`, one generator at a time.

    <H, g> is the union of the cosets H + k*g for k from 0 below the least
    k >= 1 with k*g in H, so each element of the result costs about one
    addition.
    """
    zero = zero_of(moduli)
    elems = [zero]
    have = {zero}
    for g in gens:
        if g in have:
            continue
        coset = elems
        grown = []
        while True:
            coset = [add_mod(x, g, moduli) for x in coset]
            if coset[0] in have:  # coset[0] = k*g, since elems[0] is zero
                break
            grown.extend(coset)
        elems.extend(grown)
        have.update(grown)
    return frozenset(have)


def all_subgroups(moduli: Moduli, caps: Caps = DEFAULT_CAPS) -> List[FrozenSet[Element]]:
    """Every subgroup, as an element set, in a deterministic order."""
    return _all_subgroups(moduli, caps)


def _translation(z: Element, moduli: Moduli) -> List[Tuple[int, int, int]]:
    """Nonzero digits (weight, modulus, digit) of z in the mixed-radix code
    whose weights are w_i = prod(moduli[i+1:])."""
    steps = []
    w = order_of_moduli(moduli)
    for v, m in zip(z, moduli):
        w //= m
        if v:
            steps.append((w, m, v))
    return steps


def _translate(xs: List[int], steps: List[Tuple[int, int, int]]) -> List[int]:
    """Codes of x + z for every code x in xs, digit by digit, without carries."""
    for w, m, v in steps:
        xs = [x + (v if x // w % m + v < m else v - m) * w for x in xs]
    return xs


@functools.lru_cache(maxsize=None)
def _all_subgroups(moduli: Moduli, caps: Caps) -> List[FrozenSet[Element]]:
    order = order_of_moduli(moduli)
    if order > caps.center_order:
        raise CapExceeded(f"center order on moduli {moduli}", caps.center_order,
                          observed=order, module="abelian")
    # element i is the i-th tuple in lexicographic order, so sorting codes
    # sorts tuples; subgroups are frozensets of codes until the end
    elements = sorted(elements_of(moduli))
    steps = [_translation(z, moduli) for z in elements]
    # work guard: each closure <sub, z> is charged the walk's nominal cost,
    # that of a fixpoint closure from len(sub) + 1 generators, so that caps
    # trip where they always have although the closures below are cheaper;
    # lattices that explode must fail fast rather than grind to the count cap
    work_budget = 512 * caps.subgroup_count
    work = 0
    subs = {frozenset([0])}
    frontier = list(subs)
    while frontier:
        new = []
        for sub in frontier:
            members = list(sub)
            for z in range(order):
                if z in sub:
                    continue
                # <sub, z> is the union of the cosets sub + k*z for k below
                # the order of z modulo sub; translate whichever side is shorter
                step = steps[z]
                multiples = [0]
                kz = z
                while kz not in sub:
                    multiples.append(kz)
                    for w, m, v in step:
                        kz += (v if kz // w % m + v < m else v - m) * w
                if len(multiples) <= len(members):
                    grown = members[:]
                    for y in multiples[1:]:
                        grown += _translate(members, steps[y])
                else:
                    grown = multiples[:]
                    for x in members:
                        if x:
                            grown += _translate(multiples, steps[x])
                bigger = frozenset(grown)
                work += len(bigger) * (len(sub) + 1)
                if work > work_budget:
                    raise CapExceeded(f"subgroup enumeration work on moduli {moduli}",
                                      work_budget, observed=len(subs), module="abelian")
                if bigger not in subs:
                    subs.add(bigger)
                    new.append(bigger)
                    if len(subs) > caps.subgroup_count:
                        raise CapExceeded(f"subgroup count on moduli {moduli}",
                                          caps.subgroup_count, observed=len(subs),
                                          module="abelian")
        frontier = new
    ordered = sorted((sorted(s) for s in subs), key=lambda s: (len(s), s))
    return [frozenset(elements[i] for i in s) for s in ordered]


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


def quotient_invariants(moduli: Moduli, sub: FrozenSet[Element]) -> Tuple[int, ...]:
    """Invariant factors of (product of Z_m) / sub."""
    full = order_of_moduli(moduli)
    if full % len(sub):
        raise ValueError("subgroup order does not divide group order")
    # order of x modulo sub = least k >= 1 with k*x in sub; every coset
    # contributes len(sub) equal orders, so one in len(sub) of them is kept
    orders = []
    for x in elements_of(moduli):
        k = 1
        acc = x
        while acc not in sub:
            acc = add_mod(acc, x, moduli)
            k += 1
        orders.append(k)
    return invariants_from_orders(sorted(orders)[::len(sub)])


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
        """Canonicalise an arbitrary product of cyclic groups."""
        return cls(quotient_invariants(moduli, frozenset([zero_of(moduli)])))

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

    def element_order(self, a: Element) -> int:
        return element_order(a, self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "x".join(f"Z{d}" for d in self.factors)
