"""Finite abelian groups in invariant-factor form, and their subgroups.

`FiniteAbelianGroup` is the canonical presentation Z_{d1} x ... x Z_{dk}
with d1 | d2 | ... | dk, all > 1.  Underneath, module-level functions work
on an arbitrary tuple of moduli (one per coordinate, not necessarily a
divisor chain), which is the natural shape for the center of a product of
simple factors: each factor contributes its own coordinate block.

An element is coded by its position in lexicographic order (digit j has
weight prod(moduli[j+1:])), and a subgroup is an int mask whose bit i is
the element of code i.  Element tuples appear only as generators:
`subgroup_closure` takes them and `minimal_generators` returns them.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Iterable, List, Sequence, Tuple

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .records import Record

Element = Tuple[int, ...]
Moduli = Tuple[int, ...]


def _codes(mask: int) -> List[int]:
    """Positions of the set bits of `mask`, ascending."""
    bits = bin(mask)[:1:-1]
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return out


class _Translations:
    """Translation of element masks on one moduli tuple.

    Translating by v in digit j (weight w, modulus m) is one shift-and-mask
    move: codes whose digit is below m - v move up by v*w, the rest wrap
    down by (m - v)*w.  The low mask is one block pattern per period m*w,
    repeated by a repunit.  The translation by z is one move per nonzero
    digit of z, put together the first time z is asked for and kept only
    as long as this object.
    """

    def __init__(self, moduli: Moduli):
        self.order = math.prod(moduli)
        self.full = full = (1 << self.order) - 1
        self.digits = []  # (weight, modulus, move per digit value)
        w = self.order
        for m in moduli:
            w //= m
            repunit = full // ((1 << m * w) - 1)
            row = [None]
            for v in range(1, m):
                low = ((1 << (m - v) * w) - 1) * repunit
                row.append((w, m, v, low, full ^ low, v * w, (m - v) * w))
            self.digits.append((w, m, row))
        self.steps: Dict[int, list] = {}

    def encode(self, element: Element) -> int:
        code = 0
        for x, (_, m, _) in zip(element, self.digits):
            code = code * m + x % m
        return code

    def decode(self, code: int) -> Element:
        return tuple(code // w % m for w, m, _ in self.digits)

    def check(self, sub: int) -> None:
        """Reject a mask with no code 0 or a code past the group order, on
        which the multiples loop would never end."""
        if not sub & 1 or sub >> self.order:
            raise ValueError(f"{sub:#x} is no subgroup mask: it needs code 0 "
                             f"and no code past {self.order - 1}")

    def step(self, z: int) -> list:
        """The moves (w, m, v, low, high, up, down) that translate by z."""
        step = self.steps.get(z)
        if step is None:
            step = self.steps[z] = [row[v] for w, m, row in self.digits if (v := z // w % m)]
        return step

    def shift(self, mask: int, z: int) -> int:
        """The mask translated by z."""
        for _, _, _, low, high, up, down in self.step(z):
            mask = (mask & low) << up | (mask & high) >> down
        return mask

    def multiples(self, sub: int, z: int) -> List[int]:
        """The codes of 0, z, 2z, ... below the order of z modulo sub."""
        step = self.step(z)
        out = [0]
        kz = z
        while not sub >> kz & 1:
            out.append(kz)
            for w, m, v, _, _, _, _ in step:
                kz += (v if kz // w % m + v < m else v - m) * w
        return out

    def close(self, sub: int, z: int) -> Tuple[int, int, int]:
        """(sub + z, <sub, z>, the guard's charge for each element of sub + z)
        for a subgroup mask sub."""
        size = sub.bit_count()
        coset = self.shift(sub, z)
        multiples = self.multiples(sub, z)
        k = len(multiples)
        # <sub, z> = sub + multiples; translate whichever side is shorter
        if k - 1 <= size:
            bigger = sub | coset
            kcoset = coset
            for _ in range(k - 2):
                kcoset = self.shift(kcoset, z)
                bigger |= kcoset
        else:
            bitmap = bytearray(self.order // 8 + 1)
            for x in multiples:
                bitmap[x >> 3] |= 1 << (x & 7)
            bigger = span = int.from_bytes(bitmap, "little")
            for x in _codes(sub)[1:]:
                bigger |= self.shift(span, x)
        # nominal cost: a fixpoint closure from size + 1 generators
        return coset, bigger, k * size * (size + 1)


def subgroup_closure(gens: Iterable[Element], moduli: Moduli) -> int:
    """The mask of the subgroup generated by `gens` (coordinates taken
    modulo their moduli), one generator at a time."""
    t = _Translations(moduli)
    sub = 1
    for g in gens:
        z = t.encode(g)
        if not sub >> z & 1:
            sub = t.close(sub, z)[1]
    return sub


def all_subgroups(moduli: Moduli, caps: Caps = DEFAULT_CAPS) -> List[int]:
    """Every subgroup, as a mask, by size and then by sorted codes."""
    return _all_subgroups(moduli, caps)


@functools.lru_cache(maxsize=None)
def _all_subgroups(moduli: Moduli, caps: Caps) -> List[int]:
    order = math.prod(moduli)
    if order > caps.center_order:
        raise CapExceeded(f"center order on moduli {moduli}", caps.center_order,
                          observed=order, module="abelian")
    t = _Translations(moduli)
    # work guard: each z outside sub is charged the nominal cost of <sub, z>,
    # although the closures here are cheaper; lattices that explode must
    # fail fast rather than grind to the count cap
    work_budget = 512 * caps.subgroup_count
    work = 0
    subs = {1}
    frontier = [1]
    while frontier:
        new = []
        for sub in frontier:
            size = sub.bit_count()
            # every z in a coset sub + z gives the same <sub, z> and charge,
            # so close once per coset, at its lowest element, and charge the
            # whole coset there
            rest = t.full ^ sub
            while rest:
                coset, bigger, charge = t.close(sub, (rest & -rest).bit_length() - 1)
                rest ^= coset
                work += charge * size
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
    return sorted(subs, key=lambda s: (s.bit_count(), _codes(s)))


def minimal_generators(sub: int, moduli: Moduli) -> Tuple[Element, ...]:
    """Short generating tuple for a subgroup mask.

    Elements are taken by decreasing order, then in code order, and each
    one not yet generated grows the closure by its cosets."""
    t = _Translations(moduli)
    t.check(sub)
    gens = []
    grown = 1
    # the order of z is the number of its multiples modulo {0}
    for z in sorted(_codes(sub), key=lambda z: -len(t.multiples(1, z))):
        if not grown >> z & 1:
            gens.append(z)
            grown = t.close(grown, z)[1]
    return tuple(map(t.decode, gens))


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


def quotient_invariants(moduli: Moduli, sub: int) -> Tuple[int, ...]:
    """Invariant factors of (product of Z_m) / sub, from one order per
    coset: that of its lowest code, modulo the subgroup mask sub."""
    t = _Translations(moduli)
    t.check(sub)
    if t.order % sub.bit_count():
        raise ValueError("subgroup order does not divide group order")
    orders = []
    rest = t.full
    while rest:
        z = (rest & -rest).bit_length() - 1
        orders.append(len(t.multiples(sub, z)))
        rest &= ~t.shift(sub, z)
    return invariants_from_orders(orders)


# --- canonical presentation ----------------------------------------------


class FiniteAbelianGroup(Record):
    """Z_{d1} x ... x Z_{dk} with d1 | d2 | ... | dk and every di > 1."""

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: Iterable[int] = ()):
        fs = tuple(int(d) for d in factors)
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
        return cls(quotient_invariants(moduli, 1))

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    @property
    def rank(self) -> int:
        """Minimal number of generators."""
        return len(self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "x".join(f"Z{d}" for d in self.factors)
