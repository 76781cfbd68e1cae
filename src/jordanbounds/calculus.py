"""The effective bound calculus.

Three quantities are tracked per group description G:

    j    an upper bound for the Jordan constant: every finite subgroup H
         has an abelian subgroup of index at most j;
    rkf  an upper bound on the number of generators needed by any finite
         abelian subgroup;
    bd   an upper bound on the order of any finite subgroup (often infinite).

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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from . import boundvalue
from .boundvalue import BoundValue, bv_min
from .caps import Caps, DEFAULT_CAPS
from .enumeration import embedding_dim
from .extnat import INF, ExtNat

BV_ONE = boundvalue.ONE
BV_INF = boundvalue.INF


# --- closed-form constants -------------------------------------------------


def _inverse_sqrt(r: int, p: int) -> int:
    """An integer within 2 of 2^p / sqrt(r), for 1 <= r < 2^1000, from
    multiplications and shifts only.

    Newton's iteration y <- y + y*(2^2q - r*y^2) / 2^(2q+1) refines
    y ~ 2^q / sqrt(r) from a float start, nearly doubling its good bits per
    step (Brent & Zimmermann, Modern Computer Arithmetic, 2010).
    """
    half = (r.bit_length() + 1) // 2  # y has at most q - half good bits
    q = min(50 + half, p)
    y = int(math.ldexp(1.0 / math.sqrt(r), q))
    while q < p:
        # squaring the error doubles the good bits, not q: plain doubling
        # would fall a further `half` bits short on every step
        nxt = min(2 * q - half - 32, p)
        e = (1 << 2 * q) - r * y * y
        y = (y << (nxt - q)) + ((y * e) >> (3 * q + 1 - nxt))
        q = nxt
    return y


def _floor_mul_sqrt(b: int, r: int) -> int:
    """floor(b * sqrt(r)) for integers b >= 0 and 1 <= r < 2^1000, with no
    division: root = b*r*y / 2^p for y ~ 2^p / sqrt(r), then stepped until
    root^2 <= b^2*r < (root+1)^2, so it is exact whatever y's error."""
    if b == 0:
        return 0
    p = b.bit_length() + r.bit_length() + 32
    root = (b * r * _inverse_sqrt(r, p)) >> p
    d = b * b * r - root * root
    while d < 0:
        root -= 1
        d += 2 * root + 1
    while d > 2 * root:
        d -= 2 * root + 1
        root += 1
    return root


@functools.lru_cache(maxsize=None)
def gl_jordan_bound(n: int) -> int:
    """Jordan's constant for the n-dimensional general linear group:
    the largest integer strictly below (sqrt(8n) + 1)^(2n^2).

    Computed exactly in the quadratic ring Z[sqrt(8n)]: write the power as
    A + B*sqrt(8n); its floor is A + floor(B*sqrt(8n)), and when 8n is a
    perfect square the power is an integer and strictness costs one.
    """
    if n < 0:
        raise ValueError("dimension must be non-negative")
    if n == 0:
        return 1  # the trivial group
    radicand = 8 * n

    def mul(x, y):
        a, b = x
        c, d = y
        return (a * c + b * d * radicand, a * d + b * c)

    acc = (1, 0)
    base = (1, 1)
    e = 2 * n * n
    while True:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if not e:  # the next square would go unused
            break
        base = mul(base, base)
    a, b = acc
    sqrt_r = math.isqrt(radicand)
    if sqrt_r * sqrt_r == radicand:  # b > 0, so b^2*8n is a square iff 8n is
        return a + b * sqrt_r - 1
    return a + _floor_mul_sqrt(b, radicand)


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
    return BoundValue.from_int(gl_jordan_bound(embedding_dim(n, caps)))


# --- bound triples ----------------------------------------------------------


@dataclass(frozen=True)
class BoundTriple:
    """(Jordan bound, finite-abelian rank bound, finite-subgroup order bound)."""

    j: BoundValue
    rkf: ExtNat
    bd: ExtNat

    __hash__ = None

    def __post_init__(self):
        # j >= 1 holds by construction: BoundValue admits no base below 1
        # and no negative exponent
        if self.bd < 1:
            raise ValueError("order bound must be at least 1")
        if self.bd.is_finite and not self.j.is_infinite:
            if self.j.compare(BoundValue.from_int(int(self.bd))) > 0:
                raise ValueError("Jordan bound may not exceed a finite order bound")

    def __str__(self):
        return f"(J<={self.j}, Rkf<={self.rkf}, Bd<={self.bd})"

    def to_json(self, max_digits: int = DEFAULT_CAPS.decimal_digits) -> dict:
        return {"j": self.j.to_json(max_digits), "rkf": str(self.rkf), "bd": str(self.bd)}


def make_triple(j: BoundValue, rkf: ExtNat, bd: ExtNat) -> BoundTriple:
    """Normalising constructor: a finite order bound also bounds the Jordan
    constant (take the trivial abelian subgroup), so j is clamped to bd."""
    if bd.is_finite:
        j = bv_min(j, BoundValue.from_int(int(bd)))
    return BoundTriple(j, rkf, bd)


TRIVIAL_TRIPLE = BoundTriple(BV_ONE, ExtNat(0), ExtNat(1))


# --- derivation traces -------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    op: str           # key into the replay table
    rule: str         # short rule label
    statement: str    # the mathematical fact used, self-contained
    inputs: tuple
    output: object

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "rule": self.rule,
            "statement": self.statement,
            "inputs": [str(x) for x in self.inputs],
            "output": str(self.output),
        }


@dataclass
class DerivationTrace:
    steps: List[TraceStep] = field(default_factory=list)

    def add(self, op: str, rule: str, statement: str, inputs: tuple, output) -> None:
        self.steps.append(TraceStep(op, rule, statement, inputs, output))

    def extend(self, other: "DerivationTrace") -> None:
        self.steps.extend(other.steps)

    @property
    def final(self):
        return self.steps[-1].output if self.steps else None

    def replay(self):
        """Recompute every step through the replay table; raises on mismatch."""
        for step in self.steps:
            fn = _REPLAY.get(step.op)
            if fn is None:
                raise KeyError(f"no replay handler for op {step.op!r}")
            redone = fn(*step.inputs)
            if isinstance(redone, tuple):  # a (value, trace) pair
                redone = redone[0]
            if redone != step.output:
                raise AssertionError(f"trace step {step.op} does not replay: "
                                     f"{redone} != {step.output}")
        return self.final

    def to_json(self) -> list:
        return [s.to_json() for s in self.steps]


# --- leaves ------------------------------------------------------------------

LEAF_KINDS = ("torus", "unipotent", "abelian_variety", "finite",
              "gl_field", "gl_rational", "semisimple")

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


def leaf_triple(kind: str, param: int, caps: Caps = DEFAULT_CAPS) -> BoundTriple:
    """Ground constants for the atomic group kinds."""
    param = int(param)
    if kind not in LEAF_KINDS:
        raise ValueError(f"unknown leaf kind {kind!r}")
    if param < 0:
        raise ValueError(f"{kind} parameter must be non-negative")
    if kind == "torus":
        return make_triple(BV_ONE, ExtNat(param), INF)
    if kind == "unipotent":
        return make_triple(BV_ONE, ExtNat(0), ExtNat(1))
    if kind == "abelian_variety":
        return make_triple(BV_ONE, ExtNat(2 * param), INF)
    if kind == "finite":
        if param < 1:
            raise ValueError("finite group order must be at least 1")
        return make_triple(BoundValue.from_int(param),
                           ExtNat(param.bit_length() - 1), ExtNat(param))
    if kind == "gl_field":
        return make_triple(BoundValue.from_int(gl_jordan_bound(param)),
                           ExtNat(param), INF)
    if kind == "gl_rational":
        if param < 1:
            raise ValueError("rational general linear leaf needs dimension >= 1")
        return make_triple(BoundValue.from_int(gl_jordan_bound(param)),
                           ExtNat(param), ExtNat(minkowski_bound(param)))
    # semisimple leaf: param is the total dimension of the class
    return make_triple(semisimple_jordan_bound(param, caps),
                       ExtNat(embedding_dim(param, caps)), INF)


def leaf_with_trace(kind: str, param: int, caps: Caps = DEFAULT_CAPS
                    ) -> Tuple[BoundTriple, DerivationTrace]:
    triple = leaf_triple(kind, param, caps)
    trace = DerivationTrace()
    trace.add("leaf", f"leaf {kind}", _LEAF_STATEMENTS[kind], (kind, param), triple)
    return triple, trace


# --- combination rules --------------------------------------------------------


def combine_extension(normal: BoundTriple, quotient: BoundTriple
                      ) -> Tuple[BoundTriple, DerivationTrace]:
    """Fold a short exact sequence 1 -> G1 -> G -> G2 -> 1.

    The Jordan bound is the best of every applicable rule:

      finite-quotient   J(G) <= Bd(G2) * J(G1),      needs Bd(G2) finite;
      torsion-free part J(G) <= J(G2),               needs Bd(G1) = 1;
      rank-power        J(G) <= J(G2) * Bd(G1)^(Rk_f(G2) * Bd(G1)),
                        needs Bd(G1), Rk_f(G2) finite and Rk_f(G2) >= 1
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
    if t2.bd.is_finite:
        candidates.append((
            "finite-quotient",
            "J(G) <= Bd(G2) * J(G1) for 1 -> G1 -> G -> G2 -> 1",
            t1.j * BoundValue.from_int(int(t2.bd)),
        ))
    if t1.bd == 1:
        candidates.append((
            "torsion-free-normal",
            "if Bd(G1) = 1 then J(G) <= J(G2)",
            t2.j,
        ))
    if t1.bd.is_finite and t2.rkf.is_finite and int(t2.rkf) >= 1:
        b = int(t1.bd)
        candidates.append((
            "rank-power",
            "J(G) <= J(G2) * Bd(G1)^(Rk_f(G2) * Bd(G1))",
            t2.j * BoundValue.from_int(b).pow(int(t2.rkf) * b),
        ))
    rkf = t1.rkf + t2.rkf
    bd = t1.bd * t2.bd
    trace = DerivationTrace()
    if candidates:
        rule, statement, j = candidates[0]
        for r, s, cand in candidates[1:]:
            if cand.compare(j) < 0:
                rule, statement, j = r, s, cand
        out = make_triple(j, rkf, bd)
        trace.add("combine_extension", f"extension: {rule}",
                  statement + "; Rk_f(G) <= Rk_f(G1) + Rk_f(G2); "
                              "Bd(G) <= Bd(G1) * Bd(G2)",
                  (t1, t2), out)
    else:
        out = make_triple(BV_INF, rkf, bd)
        trace.add("combine_extension", "extension: no finiteness rule",
                  "neither part is constrained enough; the Jordan bound of the "
                  "extension stays unbounded; the rank and order bounds still "
                  "combine additively and multiplicatively",
                  (t1, t2), out)
    return out, trace


def combine_product(a: BoundTriple, b: BoundTriple) -> Tuple[BoundTriple, DerivationTrace]:
    """Fold a direct product: all three bounds are multiplicative except the
    rank, which is additive."""
    out = make_triple(a.j * b.j, a.rkf + b.rkf, a.bd * b.bd)
    trace = DerivationTrace()
    trace.add("combine_product", "direct product",
              "J(G1 x G2) <= J(G1) * J(G2); Rk_f <= Rk_f(G1) + Rk_f(G2); "
              "Bd <= Bd(G1) * Bd(G2)",
              (a, b), out)
    return out, trace


# --- reductive and connected closed forms --------------------------------------


def reductive_rank_bound(n: int, caps: Caps = DEFAULT_CAPS) -> ExtNat:
    """Finite abelian subgroups of a connected reductive group of dimension
    <= n need at most n + embedding_dim(n) generators: the central torus
    contributes at most n and the semisimple quotient embeds linearly."""
    return ExtNat(n + embedding_dim(n, caps))


def reductive_jordan_bound(n: int, caps: Caps = DEFAULT_CAPS) -> BoundValue:
    """Jordan bound for a connected reductive group whose derived subgroup
    has dimension <= n, and for every quotient of a connected linear group
    with that property: the semisimple bound for dimension n."""
    return semisimple_jordan_bound(n, caps)


def rank_bound_mod_commutator(n: int, m: int, caps: Caps = DEFAULT_CAPS) -> ExtNat:
    """Rank bound after quotienting a connected group by the central
    commutator subgroup of a finite subgroup: with reductive part of
    dimension <= n and anti-affine part of dimension <= m, finite abelian
    subgroups of the quotient need at most 2m + n + embedding_dim(n)
    generators."""
    return ExtNat(2 * m + n + embedding_dim(n, caps))


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
              "commutator subgroup of order at most n^n, the largest center "
              "order among semisimple groups of dimension at most n",
              (n,), order)
    commutator_leaf, leaf_trace = leaf_with_trace(
        "finite", order.to_int(max_digits=10 ** 7), caps)
    trace.extend(leaf_trace)
    rank = rank_bound_mod_commutator(n, m, caps)
    trace.add("rank_bound_mod_commutator", "rank modulo central commutator",
              "finite abelian subgroups of the quotient by the central "
              "commutator subgroup need at most 2m + n + embedding_dim(n) "
              "generators (m the anti-affine dimension, n the reductive one)",
              (n, m), rank)
    abelianised = BoundTriple(BV_ONE, rank, INF)
    combined, ext_trace = combine_extension(commutator_leaf, abelianised)
    trace.extend(ext_trace)
    total = index_bound * combined.j
    trace.add("scale", "index times subgroup bound",
              "a subgroup of index at most s with Jordan bound j gives the "
              "whole group Jordan bound s * j",
              (index_bound, combined.j), total)
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
              (n,), index)
    value = _central_commutator_pipeline(n, n, index, caps, trace)
    return value, trace


def connected_rank_bound(n: int, caps: Caps = DEFAULT_CAPS) -> ExtNat:
    """Rank bound 3n + embedding_dim(n) for connected groups of dimension n."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    return rank_bound_mod_commutator(n, n, caps)


def connected_triple(n: int, caps: Caps = DEFAULT_CAPS
                     ) -> Tuple[BoundTriple, DerivationTrace]:
    """Full triple for the family of connected groups of dimension n."""
    value, trace = connected_jordan_bound(n, caps)
    bd = ExtNat(1) if n == 0 else INF
    triple = make_triple(value, connected_rank_bound(n, caps), bd)
    trace.add("connected_triple", "connected-group triple",
              "the Jordan and rank bounds assembled above; positive-dimensional "
              "groups may contain arbitrarily large finite subgroups",
              (n,), triple)
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
              (n,), t)
    m = _antiaffine_dim_bound(n)
    trace.add("antiaffine_dim_bound", "anti-affine dimension",
              "an anti-affine group acting faithfully on a projective variety "
              "of dimension n has dimension at most 2n",
              (n,), m)
    index = semisimple_jordan_bound(t, caps)
    trace.add("semisimple_jordan_bound", "linear-part index reduction",
              "every finite subgroup of the connected automorphism group has "
              "a subgroup of index at most the semisimple Jordan bound for "
              "the reductive dimension whose affine and anti-affine images "
              "are abelian",
              (t,), index)
    value = _central_commutator_pipeline(t, m, index, caps, trace)
    return value, trace


def aut0_rank_bound(n: int, caps: Caps = DEFAULT_CAPS) -> ExtNat:
    """Rank bound 4n + t + embedding_dim(t), t = 4n^2, for the connected
    automorphism group of an n-dimensional projective variety."""
    if n < 1:
        raise ValueError("variety dimension must be positive")
    return rank_bound_mod_commutator(_reductive_dim_bound(n),
                                     _antiaffine_dim_bound(n), caps)


def aut0_triple(n: int, caps: Caps = DEFAULT_CAPS) -> Tuple[BoundTriple, DerivationTrace]:
    value, trace = aut0_jordan_bound(n, caps)
    triple = make_triple(value, aut0_rank_bound(n, caps), INF)
    trace.add("aut0_triple", "automorphism-group triple",
              "the Jordan and rank bounds assembled above",
              (n,), triple)
    return triple, trace


# the op names recorded in traces, each mapped to the function that recomputes
# the step's output from its inputs
_REPLAY: Dict[str, Callable] = {
    "leaf": leaf_triple,
    "combine_extension": combine_extension,
    "combine_product": combine_product,
    "central_commutator_order": central_commutator_order,
    "rank_bound_mod_commutator": rank_bound_mod_commutator,
    "scale": operator.mul,
    "semisimple_jordan_bound": semisimple_jordan_bound,
    "connected_triple": connected_triple,
    "reductive_dim_bound": _reductive_dim_bound,
    "antiaffine_dim_bound": _antiaffine_dim_bound,
    "aut0_triple": aut0_triple,
}
