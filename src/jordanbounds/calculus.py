"""The effective bound calculus.

Three quantities are tracked per group description G:

    j    an upper bound for the Jordan constant: every finite subgroup H
         has an abelian subgroup of index at most j;
    rkf  an upper bound on the number of generators needed by any finite
         abelian subgroup;
    bd   an upper bound on the order of any finite subgroup, or None when
         finite subgroups of unbounded order exist.

Leaf constants come from classical facts (Jordan's theorem for the general
linear group, Minkowski's theorem over the rationals, tori, abelian
varieties, unipotent torsion-freeness) and from the semisimple enumeration.
Extensions and products are folded with the propagation rules below; every
computation carries a replayable derivation trace.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, List, Optional, Tuple

from . import boundvalue
from .boundvalue import BoundValue
from .caps import Caps, DEFAULT_CAPS

# E(n) is imported on first use, so the closed GL forms (cnbound, minkowski)
# load without the enumeration, its lattices and root systems
_enumeration = None


def _embedding_dim(n: int, caps: Caps) -> int:
    """E(n), read from the enumeration module at call time, so that a rebinding
    of enumeration.embedding_dim reaches every caller."""
    global _enumeration
    if _enumeration is None:
        from . import enumeration
        _enumeration = enumeration
    return _enumeration.embedding_dim(n, caps)


BV_ONE = boundvalue.ONE
BV_INF = boundvalue.INF


# --- closed-form constants -------------------------------------------------


def _newton_inverse_sqrt(r: int, p: int) -> Tuple[int, Optional[int]]:
    """(y, err) with 0 <= 2^p / sqrt(r) - y < err, for 1 <= r < 2^1000, from
    multiplications and shifts only; err is None when no Newton step ran.

    Newton's iteration y <- y + y*(2^2q - r*y^2) / 2^(2q+1) refines
    y ~ 2^q / sqrt(r) from a float start, nearly doubling its good bits per
    step.  The precisions are planned downwards from p, so that the last
    step starts near p/2 (Brent & Zimmermann, Modern Computer Arithmetic,
    2010, sections 1.5 and 3.5).
    """
    half = (r.bit_length() + 1) // 2  # y has at most q - half good bits
    # a step from q to nxt keeps every bit good when nxt <= 2q - half - 33:
    # squaring the error doubles the good bits, not q
    plan = []
    q = p
    while q > 50 + half:
        plan.append(q)
        q = (q + half + 34) // 2
    y = int(math.ldexp(1.0 / math.sqrt(r), q))
    for nxt in reversed(plan):
        e = (1 << 2 * q) - r * y * y
        y_q, q_q = y, q
        y = (y << (nxt - q)) + ((y * e) >> (3 * q + 1 - nxt))
        q = nxt
    if not plan or abs(e).bit_length() >= 2 * q_q:
        return y, None
    # with delta = e / 2^(2q) the truth is y_q 2^(p-q) (1 - delta)^(-1/2) and
    # the last step kept y_q 2^(p-q) (1 + delta/2) rounded down; for
    # |delta| < 1/2, (1 - delta)^(-1/2) - 1 - delta/2 lies in [0, delta^2], so
    # 0 <= truth - y < y_q 2^(p-q) delta^2 + 1 < 2^s + 1
    s = y_q.bit_length() + p - q_q + 2 * abs(e).bit_length() - 4 * q_q
    return y, (1 << max(s, 0)) + 1


def _settle_root(n: int, root: int) -> int:
    """isqrt(n) for n >= 0, stepped from a guess root >= 0 until
    root^2 <= n < (root+1)^2; one step per unit of the guess's error.  The
    same steps serve integral Decimals under boundvalue._exact_context."""
    d = n - root * root
    while d < 0:
        root -= 1
        d += 2 * root + 1
    while d > 2 * root:
        d -= 2 * root + 1
        root += 1
    return root


def _floor_mul_sqrt(b: int, r: int) -> int:
    """floor(b * sqrt(r)) for integers b >= 0 and 1 <= r < 2^1000, with no
    division: b*sqrt(r) lies in [t, t + b*r*err) / 2^p for t = b*r*y and
    0 <= 2^p / sqrt(r) - y < err, so t >> p is the floor when
    (t mod 2^p) + b*r*err <= 2^p.  Otherwise (b*sqrt(r) within about 2^-31
    of an integer, or no error bound) the root is stepped exactly."""
    if b == 0:
        return 0
    p = b.bit_length() + r.bit_length() + 32
    y, err = _newton_inverse_sqrt(r, p)
    t = b * r * y
    root = t >> p
    if err is not None and t - (root << p) + b * r * err <= 1 << p:
        return root
    return _settle_root(b * b * r, root)


def _ring_power(one, r: int, e: int):
    """(a, b) with (1 + sqrt(r))^e = a + b*sqrt(r), e >= 1, in the number
    type of `one`: int, or an integral Decimal under
    boundvalue._exact_context.

    Left to right: square, then maybe multiply by 1 + sqrt(r), which costs
    two additions; a square (a + b sqrt r)^2 is
    a^2 + r b^2 + ((a + b)^2 - a^2 - b^2) sqrt r, three squarings.
    """
    a = b = one
    for bit in bin(e)[3:]:
        a2 = a * a
        b2 = b * b
        s = a + b
        a, b = a2 + r * b2, s * s - a2 - b2
        if bit == "1":
            a, b = a + r * b, a + b
    return a, b


def _newton_inverse_sqrt_mpd(r: int, p: int):
    """The libmpdec port of _newton_inverse_sqrt, in base ten: integral
    Decimals (y, err) with 0 <= 10^p / sqrt(r) - y < err, for
    1 <= r < 2^1000, from multiplications and digit shifts only; err is
    None when no Newton step ran.  Runs under boundvalue._exact_context.

    The step y <- y + y*(10^2q - r*y^2) / (2 * 10^2q) runs as for the int,
    its halving a product by 5 and one more digit of shift, with the
    precisions planned downwards from p in digits: y ~ 10^q / sqrt(r) has
    at most q - half good digits, and a step from q to nxt keeps every
    digit good when nxt <= 2q - half - 10.
    """
    import decimal as mpd

    shift = boundvalue._decimal_floor_shift
    half = (len(str(r)) + 1) // 2
    plan = []
    q = p
    while q > 14 + half:
        plan.append(q)
        q = (q + half + 11) // 2
    with boundvalue._exact_context():
        y = mpd.Decimal(int(10 ** q / math.sqrt(r)))
        for nxt in reversed(plan):
            e = mpd.Decimal(1).scaleb(2 * q) - r * (y * y)
            y_q, q_q = y, q
            y = y.scaleb(nxt - q) + shift(y * e * 5, 3 * q + 1 - nxt)
            q = nxt
        if not plan or abs(e).adjusted() >= 2 * q_q - 1:
            return y, None
        # as for the int: with delta = e / 10^(2q) and |delta| < 1/10,
        # 0 <= truth - y < y_q 10^(p-q) delta^2 + 1 < 10^s + 1
        s = y_q.adjusted() + 1 + p - q_q + 2 * (abs(e).adjusted() + 1) - 4 * q_q
        return y, mpd.Decimal(1).scaleb(max(s, 0)) + 1


def _floor_square_mpd(a, b, r: int):
    """floor((a + b*sqrt(r))^2) for integral Decimals a, b >= 0 and
    1 <= r < 2^1000, as an integral Decimal: one fixed-point squaring in
    place of a last ring step and a full-width B*sqrt(r).  Runs under
    boundvalue._exact_context.

    With X = a + b*sqrt(r) < 10^h, f = h + 10 fraction digits,
    k = (digits of b) + (digits of r) + 1 and
    0 <= 10^p / sqrt(r) - y < err at p = f + k, the integer
    T = a*10^f + floor(b*r*y / 10^k) has T <= X*10^f < T + u for
    u = 1 + ceil(b*r*err / 10^k).  So X^2 * 10^(2f) lies in
    [T^2, T^2 + u(2T + u)), and floor(T^2 / 10^(2f)) is the floor when the
    upper end does not pass the next multiple of 10^(2f).  Otherwise (X^2
    within about 10^-10 of an integer, or no error bound) the floor
    A + floor(B*sqrt(r)) of X^2 = A + B*sqrt(r) is stepped exactly.
    """
    import decimal as mpd

    shift = boundvalue._decimal_floor_shift
    with boundvalue._exact_context():
        r_digits = len(str(r))
        b_digits = b.adjusted() + 1
        # a < 10^(digits of a) and b*sqrt(r) <= b*r < 10^(b_digits + r_digits)
        h = max(a.adjusted() + 1, b_digits + r_digits) + 1
        f = h + 10
        k = b_digits + r_digits + 1
        y, err = _newton_inverse_sqrt_mpd(r, f + k)
        br = b * r
        t = a.scaleb(f) + shift(br * y, k)
        t2 = t * t
        low = shift(t2, 2 * f)
        if err is not None:
            u = 1 - shift(-br * err, k)
            if t2 - low.scaleb(2 * f) + u * (2 * t + u) <= mpd.Decimal(1).scaleb(2 * f):
                return low
        # X^2 = A + B*sqrt(r) with A = a^2 + r b^2 and B = 2ab
        big_a = a * a + br * b
        big_b = 2 * a * b
        return big_a + _settle_root(big_b * big_b * r, max(low - big_a, 0))


# From this n on (326,343 bits), gl_jordan_bound computes in libmpdec: the
# power stops at (1 + sqrt(8n))^(n^2), _floor_square_mpd squares it once in
# fixed point, and the result becomes an int by halves.  A size, not a cap:
# both paths give the same value at every n.  Measured crossover (best of 21
# alternating in-process runs, 2-vCPU x86-64 host): libmpdec takes 1.07x the
# int time at n = 170, 0.95-1.00x at 172-182, 0.90x at 192, 0.70x at 256.
# A perfect-square 8n stays on the int path, whose power needs no floor
# (libmpdec and the conversion take 1.5x at n = 242)
_GL_DECIMAL_N = 176


def _gl_floor_mpd(n: int):
    """gl_jordan_bound(n) for n >= 1 as an integral libmpdec Decimal."""
    import decimal as mpd

    radicand = 8 * n
    with boundvalue._exact_context():
        a, b = _ring_power(mpd.Decimal(1), radicand, n * n)
        root = math.isqrt(radicand)
        if root * root == radicand:  # the power is the integer (a + b root)^2
            x = a + b * root
            return x * x - 1
        return _floor_square_mpd(a, b, radicand)


@functools.lru_cache(maxsize=None)
def gl_jordan_bound(n: int) -> int:
    """Jordan's constant for the n-dimensional general linear group:
    the largest integer strictly below (sqrt(8n) + 1)^(2n^2).

    Computed exactly in the quadratic ring Z[sqrt(8n)]: write the power as
    A + B*sqrt(8n); its floor is A + floor(B*sqrt(8n)), and when 8n is a
    perfect square the power is an integer and strictness costs one.  From
    _GL_DECIMAL_N on, any other n is computed in libmpdec (_gl_floor_mpd).
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if n == 0:
        return 1  # the trivial group
    radicand = 8 * n
    sqrt_r = math.isqrt(radicand)
    # b > 0, so b^2*8n is a square iff 8n is
    square = sqrt_r * sqrt_r == radicand
    if n >= _GL_DECIMAL_N and not square:
        return boundvalue._decimal_to_int(_gl_floor_mpd(n))
    a, b = _ring_power(1, radicand, 2 * n * n)
    if square:
        return a + b * sqrt_r - 1
    return a + _floor_mul_sqrt(b, radicand)


def gl_jordan_decimal(n: int) -> str:
    """gl_jordan_bound(n) in decimal; from _GL_DECIMAL_N on, the libmpdec
    value's own string, with no int in between."""
    if n >= _GL_DECIMAL_N:
        return str(_gl_floor_mpd(n))
    return boundvalue.decimal(gl_jordan_bound(n))


def _primes_up_to(n: int) -> List[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def minkowski_bound(n: int) -> int:
    """Minkowski's bound: the order of every finite subgroup of the
    n-dimensional rational general linear group divides
    prod over primes p <= n+1 of p^(sum_i floor(n / (p^i (p-1))))."""
    if n < 1:
        raise ValueError("dimension must be positive")
    out = 1
    for p in _primes_up_to(n + 1):
        e = 0
        pk = 1
        while n // (pk * (p - 1)) > 0:
            e += n // (pk * (p - 1))
            pk *= p
        out *= p ** e
    return out


def semisimple_jordan_bound(n: int, caps: Caps = DEFAULT_CAPS) -> BoundValue:
    """Jordan bound valid for every connected semisimple group of dimension
    <= n: the general linear bound at the embedding dimension."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return BoundValue.from_int(gl_jordan_bound(_embedding_dim(n, caps)))


# --- bound triples ----------------------------------------------------------


def render_order(bd: Optional[int]) -> str:
    """An order bound as text: "inf" when unbounded, else its exact decimal."""
    return "inf" if bd is None else boundvalue.decimal(bd)


def _order_product(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Order bound of an extension or product; unbounded absorbs, since order
    bounds are at least 1."""
    return None if a is None or b is None else a * b


class BoundTriple:
    """(Jordan bound, finite-abelian rank bound, finite-subgroup order bound);
    bd is None when finite subgroups of unbounded order exist.  A finite
    order bound also bounds the Jordan constant (take the trivial abelian
    subgroup), so j is clamped to bd; on a tie the given j is kept."""

    __slots__ = ("j", "rkf", "bd")

    def __init__(self, j: BoundValue, rkf: int, bd: Optional[int]):
        # j >= 1 holds by construction: BoundValue admits no base below 1
        # and no negative exponent
        if rkf < 0:
            raise ValueError("rank bound must be non-negative")
        if bd is not None:
            if bd < 1:
                raise ValueError("order bound must be at least 1")
            order = BoundValue.from_int(bd)
            if j.compare(order) > 0:
                j = order
        self.j = j
        self.rkf = rkf
        self.bd = bd

    def __eq__(self, other):
        if other.__class__ is not BoundTriple:
            return NotImplemented
        return (self.j, self.rkf, self.bd) == (other.j, other.rkf, other.bd)

    def __str__(self):
        return f"(J<={self.j}, Rkf<={self.rkf}, Bd<={render_order(self.bd)})"

    def __repr__(self):
        # decimal(), not int repr: an order bound can pass the int -> str limit
        bd = None if self.bd is None else boundvalue.decimal(self.bd)
        return f"BoundTriple(j={self.j!r}, rkf={self.rkf}, bd={bd})"

    def to_json(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> dict:
        return {"j": self.j.to_json(max_digits), "rkf": str(self.rkf),
                "bd": render_order(self.bd)}


# --- derivation traces -------------------------------------------------------


class TraceStep:
    """One rule application: the rule's fixed name `op`, a short `rule`
    label, the self-contained mathematical `statement` used, its `inputs`
    and `output`, and `redo`, which recomputes the output from the inputs
    with the caps of the call that made it (left out of == and repr)."""

    __slots__ = ("op", "rule", "statement", "inputs", "output", "redo")

    def __init__(self, op: str, rule: str, statement: str, inputs: tuple, output,
                 redo: Callable):
        self.op = op
        self.rule = rule
        self.statement = statement
        self.inputs = inputs
        self.output = output
        self.redo = redo

    def __eq__(self, other):
        if other.__class__ is not TraceStep:
            return NotImplemented
        return ((self.op, self.rule, self.statement, self.inputs, self.output)
                == (other.op, other.rule, other.statement, other.inputs, other.output))

    def __repr__(self):
        return (f"TraceStep(op={self.op!r}, rule={self.rule!r}, "
                f"statement={self.statement!r}, inputs={self.inputs!r}, "
                f"output={self.output!r})")

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "rule": self.rule,
            "statement": self.statement,
            "inputs": [str(x) for x in self.inputs],
            "output": str(self.output),
        }


class DerivationTrace:
    """The steps of one derivation, in the order they were made."""

    __slots__ = ("steps",)

    def __init__(self, steps: Optional[List[TraceStep]] = None):
        self.steps = [] if steps is None else steps

    def __eq__(self, other):
        if other.__class__ is not DerivationTrace:
            return NotImplemented
        return self.steps == other.steps

    def __repr__(self):
        return f"DerivationTrace(steps={self.steps!r})"

    def add(self, op: str, rule: str, statement: str, inputs: tuple, output,
            redo: Callable) -> None:
        self.steps.append(TraceStep(op, rule, statement, inputs, output, redo))

    def extend(self, other: "DerivationTrace") -> None:
        self.steps.extend(other.steps)

    @property
    def final(self):
        return self.steps[-1].output if self.steps else None

    def replay(self):
        """Recompute every step from its inputs; raises on mismatch."""
        for step in self.steps:
            redone = step.redo(*step.inputs)
            if isinstance(redone, tuple):  # a (value, trace) pair
                redone = redone[0]
            if redone != step.output:
                raise AssertionError(f"trace step {step.op} does not replay: "
                                     f"{redone} != {step.output}")
        return self.final

    def to_json(self) -> list:
        return [s.to_json() for s in self.steps]


# --- leaves ------------------------------------------------------------------

_LEAF_STATEMENTS = {
    "torus": "a torus T is abelian (J = 1) and Rk_f(T) = dim T; "
             "its finite subgroups have unbounded order",
    "unipotent": "a unipotent group in characteristic zero is torsion-free: "
                 "J = 1, Rk_f = 0, Bd = 1",
    "abelian_variety": "an abelian variety A is abelian (J = 1) and "
                       "Rk_f(A) = 2 dim A",
    "finite": "a group of order at most N satisfies J <= N, "
              "Rk_f <= floor(log2 N) and Bd <= N",
    "gl_field": "every finite subgroup of the n-dimensional general linear group "
                "has an abelian subgroup of index below (sqrt(8n)+1)^(2n^2); "
                "Rk_f = n",
    "gl_rational": "over the rationals, Minkowski's theorem additionally bounds "
                   "finite subgroup orders by a divisor of M(n)",
    "semisimple": "a connected semisimple group of dimension d embeds in the "
                  "general linear group of the embedding dimension for d, "
                  "through which its bounds are inherited",
}

LEAF_KINDS = tuple(_LEAF_STATEMENTS)


def leaf_triple(kind: str, param: int, caps: Caps = DEFAULT_CAPS) -> BoundTriple:
    """Ground constants for the atomic group kinds."""
    if kind not in LEAF_KINDS:
        raise ValueError(f"unknown leaf kind {kind!r}")
    if not isinstance(param, int) or isinstance(param, bool):
        raise ValueError(f"{kind} parameter must be an integer, got {param!r}")
    if param < 0:
        raise ValueError(f"{kind} parameter must be non-negative")
    if kind == "torus":
        return BoundTriple(BV_ONE, param, None)
    if kind == "unipotent":
        return BoundTriple(BV_ONE, 0, 1)
    if kind == "abelian_variety":
        return BoundTriple(BV_ONE, 2 * param, None)
    if kind == "finite":
        if param < 1:
            raise ValueError("finite group order must be at least 1")
        return BoundTriple(BoundValue.from_int(param), param.bit_length() - 1, param)
    if kind == "gl_field":
        return BoundTriple(BoundValue.from_int(gl_jordan_bound(param)), param, None)
    if kind == "gl_rational":
        if param < 1:
            raise ValueError("rational general linear leaf needs dimension >= 1")
        bd = minkowski_bound(param)
        # sqrt(8n) + 1 >= 2^k, so the GL bound is at least 2^(2n^2 k) - 1 and
        # the clamp to bd keeps bd whenever bd has no more bits than that
        k = (math.isqrt(8 * param) + 1).bit_length() - 1
        j = bd if bd.bit_length() <= 2 * param * param * k else gl_jordan_bound(param)
        return BoundTriple(BoundValue.from_int(j), param, bd)
    # semisimple leaf: param is the total dimension of the class
    return BoundTriple(semisimple_jordan_bound(param, caps),
                       _embedding_dim(param, caps), None)


def leaf_with_trace(kind: str, param: int, caps: Caps = DEFAULT_CAPS
                    ) -> Tuple[BoundTriple, DerivationTrace]:
    triple = leaf_triple(kind, param, caps)
    trace = DerivationTrace()
    trace.add("leaf", f"leaf {kind}", _LEAF_STATEMENTS[kind], (kind, param), triple,
              functools.partial(leaf_triple, caps=caps))
    return triple, trace


# --- combination rules --------------------------------------------------------


def combine_extension(normal: BoundTriple, quotient: BoundTriple
                      ) -> Tuple[BoundTriple, DerivationTrace]:
    """Fold a short exact sequence 1 -> G1 -> G -> G2 -> 1.

    The Jordan bound is the best of every applicable rule:

      finite-quotient   J(G) <= Bd(G2) * J(G1),      needs Bd(G2) finite;
      torsion-free part J(G) <= J(G2),               needs Bd(G1) = 1;
      rank-power        J(G) <= J(G2) * Bd(G1)^(Rk_f(G2) * Bd(G1)),
                        needs Bd(G1) finite and Rk_f(G2) >= 1
                        (with Rk_f(G2) = 0 the quotient is torsion-free and
                        the finite-quotient rule already applies with
                        Bd(G2) = 1).

    Rank and order bounds always combine additively and multiplicatively:
    Rk_f(G) <= Rk_f(G1) + Rk_f(G2) and Bd(G) <= Bd(G1) * Bd(G2).

    One classical rule runs against this fold direction and is deliberately
    not applied: when G1 is finite, J(G2) <= J(G) bounds the quotient by the
    whole group, not the other way around.
    """
    t1, t2 = normal, quotient
    candidates: List[Tuple[str, str, BoundValue]] = []
    if t2.bd is not None:
        candidates.append((
            "finite-quotient",
            "J(G) <= Bd(G2) * J(G1) for 1 -> G1 -> G -> G2 -> 1",
            t1.j * BoundValue.from_int(t2.bd),
        ))
    if t1.bd == 1:
        candidates.append((
            "torsion-free-normal",
            "if Bd(G1) = 1 then J(G) <= J(G2)",
            t2.j,
        ))
    if t1.bd is not None and t2.rkf >= 1:
        b = t1.bd
        candidates.append((
            "rank-power",
            "J(G) <= J(G2) * Bd(G1)^(Rk_f(G2) * Bd(G1))",
            t2.j * BoundValue.from_int(b).pow(t2.rkf * b),
        ))
    rkf = t1.rkf + t2.rkf
    bd = _order_product(t1.bd, t2.bd)
    trace = DerivationTrace()
    if candidates:
        rule, statement, j = candidates[0]
        for r, s, cand in candidates[1:]:
            if cand.compare(j) < 0:
                rule, statement, j = r, s, cand
        out = BoundTriple(j, rkf, bd)
        trace.add("combine_extension", f"extension: {rule}",
                  statement + "; Rk_f(G) <= Rk_f(G1) + Rk_f(G2); "
                              "Bd(G) <= Bd(G1) * Bd(G2)",
                  (t1, t2), out, combine_extension)
    else:
        out = BoundTriple(BV_INF, rkf, bd)
        trace.add("combine_extension", "extension: no finiteness rule",
                  "neither part is constrained enough; the Jordan bound of the "
                  "extension stays unbounded; the rank and order bounds still "
                  "combine additively and multiplicatively",
                  (t1, t2), out, combine_extension)
    return out, trace


def combine_product(a: BoundTriple, b: BoundTriple) -> Tuple[BoundTriple, DerivationTrace]:
    """Fold a direct product: all three bounds are multiplicative except the
    rank, which is additive."""
    out = BoundTriple(a.j * b.j, a.rkf + b.rkf, _order_product(a.bd, b.bd))
    trace = DerivationTrace()
    trace.add("combine_product", "direct product",
              "J(G1 x G2) <= J(G1) * J(G2); Rk_f <= Rk_f(G1) + Rk_f(G2); "
              "Bd <= Bd(G1) * Bd(G2)",
              (a, b), out, combine_product)
    return out, trace


# --- connected closed forms --------------------------------------


def rank_bound_mod_commutator(n: int, m: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Rank bound after quotienting a connected group by the central
    commutator subgroup of a finite subgroup: with reductive part of
    dimension <= n and anti-affine part of dimension <= m, finite abelian
    subgroups of the quotient need at most 2m + n + embedding_dim(n)
    generators."""
    return 2 * m + n + _embedding_dim(n, caps)


def central_commutator_order(n: int) -> BoundValue:
    """Order bound n^n for the central commutator subgroup produced by the
    index-reduction step inside a connected group of reductive dimension n;
    it injects into the center of a semisimple group of dimension <= n,
    whose order is at most n^n."""
    if n == 0:
        return BV_ONE
    return BoundValue.from_int(n).pow(n)


def _central_commutator_pipeline(dim_reductive: int, dim_antiaffine: int,
                                 index_bound: BoundValue, caps: Caps,
                                 trace: DerivationTrace) -> BoundValue:
    """Shared tail of the connected-group argument.

    Inside the ambient group, every finite subgroup H has a subgroup H1 of
    index at most `index_bound` whose commutator subgroup is central of
    order at most n^n (n the reductive dimension).  Finite abelian
    subgroups of the ambient group modulo that central commutator subgroup
    have bounded rank, and the rank-power extension rule turns both facts
    into a Jordan bound for H1; scaling by the index bounds H.
    """
    n, m = dim_reductive, dim_antiaffine
    order = central_commutator_order(n)
    trace.add("central_commutator_order", "central commutator order",
              "the subgroup of bounded index can be chosen with central "
              "commutator subgroup of order at most n^n, an upper bound on "
              "2^floor(n/3), the largest center order among semisimple "
              "groups of dimension at most n",
              (n,), order, central_commutator_order)
    commutator_leaf, leaf_trace = leaf_with_trace(
        "finite", order.to_int(max_digits=10 ** 7), caps)
    trace.extend(leaf_trace)
    rank = rank_bound_mod_commutator(n, m, caps)
    trace.add("rank_bound_mod_commutator", "rank modulo central commutator",
              "finite abelian subgroups of the quotient by the central "
              "commutator subgroup need at most 2m + n + embedding_dim(n) "
              "generators (m the anti-affine dimension, n the reductive one)",
              (n, m), rank, functools.partial(rank_bound_mod_commutator, caps=caps))
    abelianised = BoundTriple(BV_ONE, rank, None)
    combined, ext_trace = combine_extension(commutator_leaf, abelianised)
    trace.extend(ext_trace)
    total = index_bound * combined.j
    trace.add("scale", "index times subgroup bound",
              "a subgroup of index at most s with Jordan bound j gives the "
              "whole group Jordan bound s * j",
              (index_bound, combined.j), total, operator.mul)
    return total


def connected_jordan_bound(n: int, caps: Caps = DEFAULT_CAPS
                           ) -> Tuple[BoundValue, DerivationTrace]:
    """Jordan bound for every connected algebraic group of dimension n:

        S * (n^n)^((3n + E) * n^n)

    with S the semisimple Jordan bound and E the embedding dimension, both
    at dimension n.  The trace reassembles the bound from the primitive
    steps; its final output is the returned value.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    trace = DerivationTrace()
    index = semisimple_jordan_bound(n, caps)
    trace.add("semisimple_jordan_bound", "linear-part index reduction",
              "every finite subgroup has a subgroup of index at most the "
              "semisimple Jordan bound for dimension n whose image under the "
              "affine and anti-affine projections is abelian; the reductive "
              "and anti-affine parts both have dimension at most n",
              (n,), index, functools.partial(semisimple_jordan_bound, caps=caps))
    value = _central_commutator_pipeline(n, n, index, caps, trace)
    return value, trace


def connected_rank_bound(n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Rank bound 3n + embedding_dim(n) for connected groups of dimension n."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return rank_bound_mod_commutator(n, n, caps)


def connected_triple(n: int, caps: Caps = DEFAULT_CAPS
                     ) -> Tuple[BoundTriple, DerivationTrace]:
    """Full triple for the family of connected groups of dimension n."""
    value, trace = connected_jordan_bound(n, caps)
    bd = 1 if n == 0 else None
    triple = BoundTriple(value, connected_rank_bound(n, caps), bd)
    trace.add("connected_triple", "connected-group triple",
              "the Jordan and rank bounds assembled above; positive-dimensional "
              "groups may contain arbitrarily large finite subgroups",
              (n,), triple, functools.partial(connected_triple, caps=caps))
    return triple, trace


# --- automorphism groups of projective varieties -------------------------------


def _reductive_dim_bound(n: int) -> int:
    return 4 * n * n


def _antiaffine_dim_bound(n: int) -> int:
    return 2 * n


def aut0_jordan_bound(n: int, caps: Caps = DEFAULT_CAPS
                      ) -> Tuple[BoundValue, DerivationTrace]:
    """Jordan bound for the connected automorphism group of any projective
    variety of dimension n:

        S(t) * (t^t)^((4n + t + E(t)) * t^t),   t = 4 n^2,

    with S the semisimple Jordan bound and E the embedding dimension.
    """
    if n < 1:
        raise ValueError("variety dimension must be positive")
    trace = DerivationTrace()
    t = _reductive_dim_bound(n)
    trace.add("reductive_dim_bound", "reductive dimension",
              "a connected reductive group acting faithfully on a projective "
              "variety of dimension n has dimension at most 4n^2: its maximal "
              "torus acts generically freely, so the torus rank is at most n, "
              "and reductive dimension is at most four times the square of "
              "the rank",
              (n,), t, _reductive_dim_bound)
    m = _antiaffine_dim_bound(n)
    trace.add("antiaffine_dim_bound", "anti-affine dimension",
              "an anti-affine group acting faithfully on a projective variety "
              "of dimension n has dimension at most 2n",
              (n,), m, _antiaffine_dim_bound)
    index = semisimple_jordan_bound(t, caps)
    trace.add("semisimple_jordan_bound", "linear-part index reduction",
              "every finite subgroup of the connected automorphism group has "
              "a subgroup of index at most the semisimple Jordan bound for "
              "the reductive dimension whose affine and anti-affine images "
              "are abelian",
              (t,), index, functools.partial(semisimple_jordan_bound, caps=caps))
    value = _central_commutator_pipeline(t, m, index, caps, trace)
    return value, trace


def aut0_rank_bound(n: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Rank bound 4n + t + embedding_dim(t), t = 4n^2, for the connected
    automorphism group of an n-dimensional projective variety."""
    if n < 1:
        raise ValueError("variety dimension must be positive")
    return rank_bound_mod_commutator(_reductive_dim_bound(n),
                                     _antiaffine_dim_bound(n), caps)


def aut0_triple(n: int, caps: Caps = DEFAULT_CAPS) -> Tuple[BoundTriple, DerivationTrace]:
    value, trace = aut0_jordan_bound(n, caps)
    triple = BoundTriple(value, aut0_rank_bound(n, caps), None)
    trace.add("aut0_triple", "automorphism-group triple",
              "the Jordan and rank bounds assembled above",
              (n,), triple, functools.partial(aut0_triple, caps=caps))
    return triple, trace

