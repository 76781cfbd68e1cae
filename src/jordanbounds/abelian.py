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
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

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
        if g not in have:
            _adjoin(elems, have, g, moduli)
    return frozenset(have)


def _adjoin(elems: List[Element], have: Set[Element], g: Element, moduli: Moduli) -> None:
    """Grow the subgroup `elems` (zero first, the same elements in `have`)
    to <elems, g> in place, one coset elems + k*g at a time."""
    coset = elems
    grown = []
    while True:
        coset = [add_mod(x, g, moduli) for x in coset]
        if coset[0] in have:  # coset[0] = k*g, since elems[0] is zero
            break
        grown.extend(coset)
    elems.extend(grown)
    have.update(grown)


def all_subgroups(moduli: Moduli, caps: Caps = DEFAULT_CAPS) -> List[FrozenSet[Element]]:
    """Every subgroup, as an element set, in a deterministic order."""
    return _all_subgroups(moduli, caps)


def _codes(mask: int) -> List[int]:
    """Positions of the set bits of `mask`, ascending."""
    bits = bin(mask)[:1:-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


@functools.lru_cache(maxsize=None)
def _all_subgroups(moduli: Moduli, caps: Caps) -> List[FrozenSet[Element]]:
    order = order_of_moduli(moduli)
    if order > caps.center_order:
        raise CapExceeded(f"center order on moduli {moduli}", caps.center_order,
                          observed=order, module="abelian")
    # element i is the i-th tuple in lexicographic order (digit j has weight
    # prod(moduli[j+1:])), and a set of elements is an int with those bits
    full = (1 << order) - 1
    # moves[j][v] translates a mask by v in digit j: codes whose digit j is
    # below m - v move up by v*w, the rest wrap down by (m - v)*w; the low
    # mask is one block pattern per period m*w, repeated by a repunit
    moves = []
    w = order
    for m in moduli:
        w //= m
        repunit = full // ((1 << m * w) - 1)
        row = [None]
        for v in range(1, m):
            low = ((1 << (m - v) * w) - 1) * repunit
            row.append((w, m, v, low, full ^ low, v * w, (m - v) * w))
        moves.append(row)
    # the translation by z, one move per nonzero digit, for every code z
    steps = [[mv for mv in digits if mv] for digits in itertools.product(*moves)]

    def shift(mask: int, step: list) -> int:
        for _, _, _, low, high, up, down in step:
            mask = (mask & low) << up | (mask & high) >> down
        return mask

    def close(sub: int, size: int, z: int) -> Tuple[int, int, int]:
        """(sub + z, <sub, z>, the guard's charge for each element of sub + z)."""
        step = steps[z]
        coset = shift(sub, step)
        # the multiples of z below its order k modulo sub
        digits = [move[:3] for move in step]
        multiples = [0]
        kz = z
        while not sub >> kz & 1:
            multiples.append(kz)
            for w, m, v in digits:
                kz += (v if kz // w % m + v < m else v - m) * w
        k = len(multiples)
        # <sub, z> = sub + multiples; translate whichever side is shorter
        if k - 1 <= size:
            bigger = sub | coset
            kcoset = coset
            for _ in range(k - 2):
                kcoset = shift(kcoset, step)
                bigger |= kcoset
        else:
            bitmap = bytearray(order // 8 + 1)
            for x in multiples:
                bitmap[x >> 3] |= 1 << (x & 7)
            bigger = span = int.from_bytes(bitmap, "little")
            for x in _codes(sub)[1:]:
                bigger |= shift(span, steps[x])
        # nominal cost: a fixpoint closure from size + 1 generators
        return coset, bigger, k * size * (size + 1)

    def replay(sub: int, size: int) -> Iterator[Tuple[int, int]]:
        """(<sub, z>, charge) for each z outside sub, in code order."""
        owner: Dict[int, Tuple[int, int]] = {}
        for z in range(order):
            if not sub >> z & 1:
                if z not in owner:
                    coset, bigger, charge = close(sub, size, z)
                    owner.update(dict.fromkeys(_codes(coset), (bigger, charge)))
                yield owner[z]

    # work guard: each z outside sub is charged the nominal cost of <sub, z>,
    # so that caps trip where they always have although the closures here
    # are cheaper; lattices that explode must fail fast rather than grind to
    # the count cap
    work_budget = 512 * caps.subgroup_count
    work = 0
    subs = {1}
    frontier = [1]
    while frontier:
        new = []
        for sub in frontier:
            size = sub.bit_count()
            # every z in a coset sub + z gives the same <sub, z> and charge,
            # so close once per coset, at its lowest element: that is where
            # a walk over z in code order first meets it
            cosets = []
            upper = work
            rest = full ^ sub
            while rest and upper <= work_budget:
                coset, bigger, charge = close(sub, size, (rest & -rest).bit_length() - 1)
                cosets.append((bigger, charge * size))
                upper += charge * size
                rest ^= coset
            # only the subgroup where the guard trips is walked one z at a
            # time, so it trips at the same z with the same count
            for bigger, charge in (cosets if upper <= work_budget else replay(sub, size)):
                work += charge
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
    elements = sorted(elements_of(moduli))
    ordered = sorted(map(_codes, subs), key=lambda s: (len(s), s))
    return [frozenset(elements[i] for i in s) for s in ordered]


def minimal_generators(elems: FrozenSet[Element], moduli: Moduli) -> Tuple[Element, ...]:
    """Short generating tuple for a subgroup given as an element set.

    Elements are taken by decreasing order, and each one not yet generated
    grows the closure by its cosets."""
    gens: List[Element] = []
    zero = zero_of(moduli)
    grown = [zero]
    have = {zero}
    remaining = sorted(elems, key=lambda e: (-element_order(e, moduli), e))
    for e in remaining:
        if e not in have:
            gens.append(e)
            _adjoin(grown, have, e, moduli)
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
