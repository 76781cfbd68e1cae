"""Exact symbolic bound magnitudes.

A BoundValue is a product of integer powers prod(b_i ** e_i) held
unexpanded, together with a certified base-10 logarithm interval.  Bounds
like (n^n)^((3n+E)*n^n) dwarf anything materialisable, so arithmetic stays
on the factored form; decimal expansion is permitted only below a digit cap.

Equality is mathematical, not structural: 4^24 == 2^48.  It is decided by
rewriting both sides over a joint gcd-free (pairwise coprime) base set.
Order comparisons use outward-rounded interval enclosures of log10 with
escalating precision; sides too close to separate at the first precision
are compared as exact integers when both expand below the digit cap.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from .caps import DEFAULT_CAPS


# Past this many bits the divide-and-conquer conversion through libmpdec
# beats CPython's quadratic int -> str (2.6 ms against 2.1 ms at 40,000 bits,
# 236 ms against 31-39 ms at 384,000 bits, on a 2-vCPU x86-64 host)
_DECIMAL_SPLIT_BITS = 40_000
_DECIMAL_LEAF_BITS = 2048


def decimal(value: int) -> str:
    """Exact decimal string of an integer of any size.

    The interpreter limits int -> str conversions; printing big bounds in
    decimal is a designed feature, so a non-zero limit is raised as far as
    this value needs.  A limit of 0 already means no limit.  Values past
    _DECIMAL_SPLIT_BITS go through _decimal_product, which the limit does
    not cover.
    """
    if value.bit_length() > _DECIMAL_SPLIT_BITS:
        if value < 0:
            return "-" + decimal(-value)
        return str(_decimal_product([(value, 1)]))
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is not None:  # Python 3.10 releases before the limit have none
        limit = get_limit()
        # decimal digits <= bits * log10(2) + 1 <= bits // 3 + 1 past 21 bits,
        # and a non-zero limit is at least 640
        need = value.bit_length() // 3 + 1
        if limit and need > limit:
            sys.set_int_max_str_digits(need)
    return str(value)


def _decimal_product(factors: Iterable[Tuple[int, int]]):
    """prod(base ** exp) over positive integer bases as an exact libmpdec
    Decimal, whose products and powers are subquadratic.  A base past
    _DECIMAL_SPLIT_BITS is converted by splitting it as lo + hi * 2^w and
    combining the halves.  Every operation runs under the Inexact trap, so
    a rounding raises."""
    import decimal as mpd  # deferred: only values past the split need it

    powers = {}

    def two_to(w):
        p = powers.get(w)
        if p is None:
            if w <= _DECIMAL_LEAF_BITS:
                p = mpd.Decimal(1 << w)
            else:
                p = two_to(w // 2) * two_to(w - w // 2)
            powers[w] = p
        return p

    def convert(n, bits):
        if bits <= _DECIMAL_LEAF_BITS:
            return mpd.Decimal(n)
        w = bits // 2
        hi = n >> w
        return convert(n - (hi << w), w) + convert(hi, bits - w) * two_to(w)

    with mpd.localcontext() as ctx:
        ctx.prec = mpd.MAX_PREC
        ctx.Emax = mpd.MAX_EMAX
        ctx.Emin = mpd.MIN_EMIN
        ctx.traps[mpd.Inexact] = True
        out = mpd.Decimal(1)
        for base, exp in factors:
            bits = base.bit_length()
            d = convert(base, bits) if bits > _DECIMAL_SPLIT_BITS else mpd.Decimal(base)
            out *= d ** exp
        return out


def _coprime_basis(nums: Iterable[int]) -> List[int]:
    """gcd-free basis: pairwise coprime integers > 1 multiplicatively
    generating every input (factor refinement)."""
    basis: List[int] = []
    work = [int(n) for n in nums if n > 1]
    while work:
        n = work.pop()
        if n == 1:
            continue
        for i, p in enumerate(basis):
            g = math.gcd(n, p)
            if g == 1:
                continue
            # refine: p and n both factor through {g, p/g, n/g}
            basis.pop(i)
            work.extend((g, p // g, n // g))
            break
        else:
            basis.append(n)
    return sorted(basis)


def _factor_over_basis(n: int, exp: int, basis: List[int], out: Dict[int, int]):
    """Accumulate exp * (exponent vector of n over a gcd-free basis)."""
    for p in basis:
        if n == 1:
            break
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out[p] = out.get(p, 0) + k * exp
    if n != 1:
        raise ArithmeticError(f"{n} not generated by basis {basis}")


class BoundValue:
    """Positive integer held as an unexpanded product of powers, or infinity."""

    __slots__ = ("_factors", "_infinite")

    def __init__(self, factors: Iterable[Tuple[int, int]] = (), *, infinite: bool = False):
        merged: Dict[int, int] = {}
        if not infinite:
            for base, exp in factors:
                base = int(base)
                exp = int(exp)
                if base < 1 or exp < 0:
                    raise ValueError("bases must be >= 1 and exponents >= 0")
                if base == 1 or exp == 0:
                    continue
                merged[base] = merged.get(base, 0) + exp
        object.__setattr__(self, "_factors", tuple(sorted(merged.items())))
        object.__setattr__(self, "_infinite", infinite)

    def __setattr__(self, *a):
        raise AttributeError("BoundValue is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "BoundValue":
        if n < 1:
            raise ValueError("BoundValue must be >= 1")
        return cls([(n, 1)])

    @property
    def is_infinite(self) -> bool:
        return self._infinite

    @property
    def factors(self) -> Tuple[Tuple[int, int], ...]:
        return self._factors

    @property
    def is_one(self) -> bool:
        return not self._infinite and not self._factors

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "BoundValue":
        if isinstance(other, BoundValue):
            return other
        if isinstance(other, int):
            return BoundValue.from_int(other)
        return NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self._infinite or o._infinite:
            return INF
        return BoundValue(self._factors + o._factors)

    __rmul__ = __mul__

    def pow(self, exponent: int) -> "BoundValue":
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if exponent == 0:
            return ONE
        if self._infinite:
            return INF
        return BoundValue((b, e * exponent) for b, e in self._factors)

    __pow__ = pow

    # -- expansion ---------------------------------------------------------

    def digits10_interval(self) -> Tuple[int, int]:
        """Interval [lo, hi] certainly containing the decimal digit count."""
        if self._infinite:
            raise OverflowError("infinite bound")
        if not self._factors:
            return (1, 1)
        lo, hi = self.log10_interval()
        return (int(math.floor(lo)) + 1, int(math.floor(hi)) + 1)

    def _past_cap(self, max_digits: int, bits: int) -> Optional[bool]:
        """False when a value of at most `bits` bits surely has at most
        max_digits digits, None when it surely has more, True when only the
        expansion can tell."""
        # log10(2) < 1/3, so bits // 3 + 1 bounds the digit count from above
        # and decides most values without the certified logarithm
        if bits // 3 + 1 <= max_digits:
            return False
        lo, hi = self.digits10_interval()
        if lo > max_digits:
            return None
        return hi > max_digits

    def _bits(self) -> int:
        """An upper bound on the bit length of a finite value."""
        return sum(e * b.bit_length() for b, e in self._factors)

    def to_int(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> Optional[int]:
        """Expand to a plain integer, or None when past the digit cap."""
        if self._infinite:
            return None
        straddles = self._past_cap(max_digits, self._bits())
        if straddles is None:
            return None
        out = 1
        for base, exp in self._factors:
            out *= base ** exp
        if straddles and out >= 10 ** max_digits:
            return None
        return out

    def _decimal(self, max_digits: int) -> Optional[str]:
        """Exact decimal string of a finite value, or None past the digit
        cap; values past _DECIMAL_SPLIT_BITS expand as libmpdec powers of
        their factors, never as one int."""
        bits = self._bits()
        if bits <= _DECIMAL_SPLIT_BITS:
            value = self.to_int(max_digits)
            return None if value is None else decimal(value)
        straddles = self._past_cap(max_digits, bits)
        if straddles is None:
            return None
        out = _decimal_product(self._factors)
        if straddles and out.adjusted() + 1 > max_digits:
            return None
        return str(out)

    # -- certified log10 ---------------------------------------------------

    def log10_interval(self) -> Tuple[float, float]:
        """Certified enclosure of log10 of the value (interval arithmetic)."""
        if self._infinite:
            return (math.inf, math.inf)
        from mpmath.libmp import round_ceiling, round_floor, to_float

        # round the ends outward, so that the floats still enclose
        a, b = self._log10_ends(30)
        return (to_float(a, rnd=round_floor), to_float(b, rnd=round_ceiling))

    def _log10_ends(self, dps: int):
        """Ends of an mpmath interval enclosing log10 of a finite value, as
        raw mpf tuples at dps significant digits."""
        import mpmath  # deferred: most commands never compare magnitudes

        old = mpmath.iv.dps
        try:
            mpmath.iv.dps = dps
            total = mpmath.iv.mpf(0)
            ln10 = mpmath.iv.log(mpmath.iv.mpf(10))
            for base, exp in self._factors:
                total += mpmath.iv.mpf(exp) * mpmath.iv.log(mpmath.iv.mpf(base)) / ln10
            return total._mpi_
        finally:
            mpmath.iv.dps = old

    # -- comparisons -------------------------------------------------------

    def _canonical_vector(self, basis: List[int]) -> Tuple[Tuple[int, int], ...]:
        out: Dict[int, int] = {}
        for base, exp in self._factors:
            _factor_over_basis(base, exp, basis, out)
        return tuple(sorted((p, e) for p, e in out.items() if e))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self._infinite or o._infinite:
            return self._infinite and o._infinite
        if self._factors == o._factors:
            return True
        basis = _coprime_basis([b for b, _ in self._factors] + [b for b, _ in o._factors])
        return self._canonical_vector(basis) == o._canonical_vector(basis)

    __hash__ = None  # structural hashing would break mathematical equality

    def compare(self, other) -> int:
        """-1, 0 or 1; exact."""
        o = self._coerce(other)
        if o is NotImplemented:
            raise TypeError(f"cannot compare BoundValue with {type(other)}")
        if self._infinite or o._infinite:
            if self._infinite and o._infinite:
                return 0
            return 1 if self._infinite else -1
        if self == o:
            return 0
        alo, ahi = self.log10_interval()
        blo, bhi = o.log10_interval()
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        # too close to call: decide exactly when both expand
        a, b = self.to_int(), o.to_int()
        if a is not None and b is not None:
            return (a > b) - (a < b)
        # else escalate, comparing the interval ends unrounded: float ends
        # cannot part values whose log10 lie within one ulp
        from mpmath.libmp import mpf_lt

        dps = 60
        while dps <= 100_000:
            alo, ahi = self._log10_ends(dps)
            blo, bhi = o._log10_ends(dps)
            if mpf_lt(ahi, blo):
                return -1
            if mpf_lt(bhi, alo):
                return 1
            dps *= 2
        raise ArithmeticError("bound comparison failed to converge")

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- rendering ---------------------------------------------------------

    def render(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> str:
        """Decimal if it fits the digit cap, else the symbolic product."""
        if self._infinite:
            return "inf"
        text = self._decimal(max_digits)
        if text is not None:
            return text
        sym = " * ".join(f"{decimal(b)}^{decimal(e)}" if e != 1 else decimal(b)
                         for b, e in self._factors)
        lo, hi = self.log10_interval()
        return f"{sym} (~10^[{lo:.6g}, {hi:.6g}])"

    def __str__(self):
        return self.render(max_digits=40)

    def __repr__(self):
        if self._infinite:
            return "BoundValue.INF"
        return f"BoundValue({list(self._factors)!r})"

    def to_json(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> dict:
        if self._infinite:
            return {"infinite": True, "factors": None, "log10": None, "decimal": None}
        text = self._decimal(max_digits)
        lo, hi = self.log10_interval()
        if text is not None and len(self._factors) == 1 and self._factors[0][1] == 1:
            factors = [[text, "1"]]  # the value is its one base, already rendered
        else:
            factors = [[decimal(b), decimal(e)] for b, e in self._factors]
        return {"infinite": False, "factors": factors, "log10": [lo, hi], "decimal": text}


ONE = BoundValue()
INF = BoundValue(infinite=True)


def bv_min(*values: BoundValue) -> BoundValue:
    best = values[0]
    for v in values[1:]:
        if v.compare(best) < 0:
            best = v
    return best
