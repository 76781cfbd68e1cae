"""Exact symbolic bound magnitudes.

A BoundValue is a product of integer powers prod(b_i ** e_i) held
unexpanded, together with a certified base-10 logarithm interval.  Bounds
like (n^n)^((3n+E)*n^n) dwarf anything materialisable, so arithmetic stays
on the factored form; decimal expansion is permitted only below a digit cap.

Rendering converts each base to decimal once.  A value of at most
_DECIMAL_LEAF_BITS bits is expanded as one int and printed by str(); any
larger value under the cap is the libmpdec product of its bases' powers,
each base converted by splitting it at powers of two down to 2,048-bit
leaves (Brent & Zimmermann, Modern Computer Arithmetic, 1.7), and
to_json's factor strings come from that same conversion.

Logarithms are certified in exact integers: each base b gets cached bounds
lo <= 2^P * log2(b) <= hi, a value sums e * [lo, hi] over its factors,
and its log10 enclosure divides the P = 128 sums by the bounds of
log2(10), rounded outward to floats.

Equality is mathematical, not structural: 4^24 == 2^48.  Two values of at
most _SMALL_BITS bits are expanded and compared as ints; larger ones are
rewritten over a joint gcd-free (pairwise coprime) base set.  Order
comparisons try, in turn: the bit-length ranges 2^low <= value <= 2^bits,
exact ints when both values have at most _SMALL_BITS bits, equality, the
integer log2 enclosures at P = 128, exact ints when both sides expand below
the digit cap, and last the integer enclosures at doubling precision.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Dict, Iterable, List, Optional, Tuple

from .caps import DEFAULT_CAPS


# Past this many bits decimal() converts a plain int through libmpdec: the
# divide-and-conquer conversion beats CPython's quadratic int -> str (2.6 ms
# against 2.1 ms at 40,000 bits, 236 ms against 31-39 ms at 384,000 bits, on
# a 2-vCPU x86-64 host)
_DECIMAL_SPLIT_BITS = 40_000
# Leaf size of the split, and the size up to which a BoundValue renders by
# str(): below it libmpdec's set-up costs more than the conversion saves
_DECIMAL_LEAF_BITS = 2048
# compare and == expand two values of at most this many bits and compare
# ints: 9 us for a 4,096-bit pair, against 10-60 us for the coprime basis
# and log sums (more past it for large bases), on a 2-vCPU x86-64 host
_SMALL_BITS = 4096


def decimal(value: int) -> str:
    """Exact decimal string of an integer of any size.

    The interpreter limits int -> str conversions; printing big bounds in
    decimal is a designed feature, so a non-zero limit is raised as far as
    this value needs for the one conversion and then restored, as the limit
    also guards the host program's int(str) parsing.  A limit of 0 already
    means no limit.  Values past _DECIMAL_SPLIT_BITS go through
    _decimal_product, which the limit does not cover.
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
            try:
                return str(value)
            finally:
                sys.set_int_max_str_digits(limit)
    return str(value)


def _decimal_product(factors: Iterable[Tuple[int, int]], bases: Optional[List[str]] = None):
    """prod(base ** exp) over positive integer bases as an exact libmpdec
    Decimal, whose products and powers are subquadratic.  Each base is
    converted once: a base past _DECIMAL_LEAF_BITS is split as lo + hi * 2^w
    and the halves combined (Brent & Zimmermann, Modern Computer Arithmetic,
    1.7).  When `bases` is a list, each base's decimal string is appended to
    it.  Every operation runs under the Inexact trap, so a rounding raises."""
    import decimal as mpd  # deferred: only values past the leaf size need it

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
            d = convert(base, base.bit_length())
            if bases is not None:
                bases.append(str(d))
            out *= d ** exp
        return out


# Scale of the integer logarithm bounds: lo <= 2^_LOG_PREC * log2(b) <= hi.
# compare doubles it up to _LOG_PREC_MAX for values too close to call.
_LOG_PREC = 128
_LOG_PREC_MAX = 1 << 14


@functools.lru_cache(maxsize=None)
def _log2_bounds(base: int, prec: int = _LOG_PREC) -> Tuple[int, int]:
    """Integers lo <= 2^P * log2(base) <= hi at P = prec, at most two units
    apart; exact for powers of two.  Callers pass prec positionally, so the
    cache keeps one entry per (base, P).

    log2(base) = k + log2(m) with k = bit_length - 1 and m = base / 2^k in
    [1, 2).  The fraction's bits come from repeated squaring: with
    d = [m^2 >= 2] and m' = m^2 / 2^d, log2(m) = (d + log2(m')) / 2.  Two
    fixed-point copies of m with W = P + 32 fraction bits run this, a floor
    copy a <= m and a ceiling copy c >= m, each squaring and halving rounded
    its own way.  A rounded step is monotone in its direction: the floor
    copy takes a' <= a^2 / 2^d with a' in [1, 2), so log2(a) >=
    (d + log2(a')) / 2 >= d / 2; the ceiling copy takes c' >= c^2 / 2^d
    with c' in [1, 2], so log2(c) <= (d + log2(c')) / 2 <= (d + 1) / 2.
    Unrolled over P steps, the floor copy's bits D give 2^P * log2(m) >= D
    and the ceiling copy's bits D' give 2^P * log2(m) <= D' + 1.

    Width: the copies start within one unit 2^-W of each other, and a step
    rounds each copy by at most two units on a mantissa >= 1, which moves
    its log2 by less than 3 * 2^-W.  Step j's loss is scaled by 2^(P-j-1)
    in the unrolled sum, and these weights add up to less than 2^P, so
    D' - D < 1 + (1.5 + 3 + 3) * 2^(P-W) < 1 + 2^-29, that is D' <= D + 1.
    The bound depends on W - P = 32 alone, so it holds at every P, in
    particular at every P <= _LOG_PREC_MAX that compare asks for.
    """
    k = base.bit_length() - 1
    whole = k << prec
    if base == 1 << k:
        return whole, whole
    w = prec + 32
    if k <= w:
        a = c = base << (w - k)
    else:
        a = base >> (k - w)
        c = -(-base >> (k - w))
    two = 2 << w
    lo = hi = 0
    for _ in range(prec):
        a = a * a >> w
        c = -(-c * c >> w)
        lo <<= 1
        hi <<= 1
        if a >= two:
            a >>= 1
            lo |= 1
        if c >= two:
            c = (c + 1) >> 1
            hi |= 1
    return whole + lo, whole + hi + 1


def _float_outward(num: int, den: int, up: bool) -> float:
    """num / den > 0 rounded to a float downward (up False) or upward (up
    True).  Int true division rounds to nearest; the result is checked
    exactly and stepped one ulp if it landed on the wrong side.  Past the
    float range the result is infinite."""
    try:
        x = num / den
    except OverflowError:
        return math.inf
    p, q = x.as_integer_ratio()
    if up and p * den < num * q:
        return math.nextafter(x, math.inf)
    if not up and p * den > num * q:
        return math.nextafter(x, -math.inf)
    return x


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
    """Positive integer held as an unexpanded product of powers, or infinity.

    _bits and _low_bits bound a finite value as 2^_low_bits <= value <=
    2^_bits; they are set once, when the value is made."""

    __slots__ = ("_factors", "_infinite", "_bits", "_low_bits")

    def __init__(self, factors: Iterable[Tuple[int, int]] = (), *, infinite: bool = False):
        merged: Dict[int, int] = {}
        if not infinite:
            for base, exp in factors:
                # int subclasses are refused too: bool, and IntEnum, whose
                # str() is not its decimal
                if type(base) is not int or type(exp) is not int:
                    raise ValueError("bases and exponents must be ints")
                if base < 1 or exp < 0:
                    raise ValueError("bases must be >= 1 and exponents >= 0")
                if base == 1 or exp == 0:
                    continue
                merged[base] = merged.get(base, 0) + exp
        factors = tuple(sorted(merged.items()))
        bits = sum(e * b.bit_length() for b, e in factors)
        self._set(factors, infinite, bits, bits - sum(e for _, e in factors))

    def _set(self, factors, infinite, bits, low_bits):
        put = object.__setattr__
        put(self, "_factors", factors)
        put(self, "_infinite", infinite)
        put(self, "_bits", bits)
        put(self, "_low_bits", low_bits)

    @classmethod
    def _of(cls, factors: Tuple[Tuple[int, int], ...], bits: int, low_bits: int) -> "BoundValue":
        """A finite value from factors already merged and sorted, with bases
        > 1 and exponents > 0, and their bit-length bounds."""
        value = object.__new__(cls)
        value._set(factors, False, bits, low_bits)
        return value

    def __setattr__(self, *a):
        raise AttributeError("BoundValue is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "BoundValue":
        if type(n) is not int:
            raise ValueError("BoundValue.from_int takes an int")
        if n < 1:
            raise ValueError("BoundValue must be >= 1")
        if n == 1:
            return cls._of((), 0, 0)
        bits = n.bit_length()
        return cls._of(((n, 1),), bits, bits - 1)

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
        if type(other) is int:
            return BoundValue.from_int(other)
        return NotImplemented

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if self._infinite or o._infinite:
            return INF
        merged = dict(self._factors)
        for base, exp in o._factors:
            merged[base] = merged.get(base, 0) + exp
        return BoundValue._of(tuple(sorted(merged.items())), self._bits + o._bits,
                              self._low_bits + o._low_bits)

    __rmul__ = __mul__

    def pow(self, exponent: int) -> "BoundValue":
        if type(exponent) is not int:
            raise ValueError("exponent must be an int")
        if exponent < 0:
            raise ValueError("exponent must be >= 0")
        if exponent == 0:
            return ONE
        if self._infinite:
            return INF
        return BoundValue._of(tuple((b, e * exponent) for b, e in self._factors),
                              self._bits * exponent, self._low_bits * exponent)

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

    def _past_cap(self, max_digits: int) -> Optional[bool]:
        """False when a finite value surely has at most max_digits digits,
        None when it surely has more, True when only the expansion can
        tell."""
        # log10(2) < 1/3, so bits // 3 + 1 bounds the digit count from above
        # and decides most values without the certified logarithm
        if self._bits // 3 + 1 <= max_digits:
            return False
        lo, hi = self.digits10_interval()
        if lo > max_digits:
            return None
        return hi > max_digits

    def _expand(self) -> int:
        """The finite value as one int, whatever its size."""
        out = 1
        for base, exp in self._factors:
            out *= base ** exp
        return out

    def to_int(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> Optional[int]:
        """Expand to a plain integer, or None when past the digit cap."""
        if self._infinite:
            return None
        straddles = self._past_cap(max_digits)
        if straddles is None:
            return None
        out = self._expand()
        if straddles and out >= 10 ** max_digits:
            return None
        return out

    def _decimal(self, max_digits: int, bases: Optional[List[str]] = None) -> Optional[str]:
        """Exact decimal string of a finite value, or None past the digit
        cap; nothing surely past the cap is expanded.  When `bases` is a
        list and the value is expanded, the decimal strings of its bases are
        appended to it."""
        straddles = self._past_cap(max_digits)
        if straddles is None:
            return None
        if self._bits <= _DECIMAL_LEAF_BITS:
            # at most 617 digits: below every non-zero int -> str limit
            if bases is not None:
                bases.extend(str(b) for b, _ in self._factors)
            text = str(self._expand())
            return None if straddles and len(text) > max_digits else text
        out = _decimal_product(self._factors, bases)
        if straddles and out.adjusted() + 1 > max_digits:
            return None
        if bases and len(self._factors) == 1 and self._factors[0][1] == 1:
            return bases[0]  # the value is its one base: share the string
        return str(out)

    # -- certified log10 ---------------------------------------------------

    def _log2_sums(self, prec: int) -> Tuple[int, int]:
        """Integers lo <= 2^prec * log2 of a finite value <= hi."""
        lo = hi = 0
        for base, exp in self._factors:
            blo, bhi = _log2_bounds(base, prec)
            lo += exp * blo
            hi += exp * bhi
        return lo, hi

    def log10_interval(self) -> Tuple[float, float]:
        """Certified enclosure of log10 of the value, as floats."""
        if self._infinite:
            return (math.inf, math.inf)
        lo, hi = self._log2_sums(_LOG_PREC)
        ten_lo, ten_hi = _log2_bounds(10, _LOG_PREC)
        return (_float_outward(lo, ten_hi, False), _float_outward(hi, ten_lo, True))

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
        if self._bits <= _SMALL_BITS and o._bits <= _SMALL_BITS:
            return self._expand() == o._expand()
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
        # 2^low <= value <= 2^bits, with equality at ONE's 0 = 0: only
        # strictly disjoint ranges decide
        if self._bits < o._low_bits:
            return -1
        if o._bits < self._low_bits:
            return 1
        if self._bits <= _SMALL_BITS and o._bits <= _SMALL_BITS:
            a, b = self._expand(), o._expand()
            return (a > b) - (a < b)
        if self == o:
            return 0
        # equal values were caught above, and a nonzero linear form in
        # logarithms of integers is bounded away from zero (Baker), so finer
        # enclosures separate any pair; the cap bounds the work
        prec = _LOG_PREC
        while prec <= _LOG_PREC_MAX:
            alo, ahi = self._log2_sums(prec)
            blo, bhi = o._log2_sums(prec)
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            if prec == _LOG_PREC:
                # too close to call: decide exactly when both expand
                a, b = self.to_int(), o.to_int()
                if a is not None and b is not None:
                    return (a > b) - (a < b)
            prec *= 2
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
        # decimal(), not int repr: bases can pass the int -> str digit limit
        pairs = ", ".join(f"({decimal(b)}, {decimal(e)})" for b, e in self._factors)
        return f"BoundValue([{pairs}])"

    def to_json(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> dict:
        if self._infinite:
            return {"infinite": True, "factors": None, "log10": None, "decimal": None}
        bases: List[str] = []
        text = self._decimal(max_digits, bases)
        lo, hi = self.log10_interval()
        if len(bases) != len(self._factors):  # past the cap: not expanded
            bases = [decimal(b) for b, _ in self._factors]
        factors = [[s, decimal(e)] for s, (_, e) in zip(bases, self._factors)]
        return {"infinite": False, "factors": factors, "log10": [lo, hi], "decimal": text}


ONE = BoundValue()
INF = BoundValue(infinite=True)


def bv_min(*values: BoundValue) -> BoundValue:
    best = values[0]
    for v in values[1:]:
        if v.compare(best) < 0:
            best = v
    return best
