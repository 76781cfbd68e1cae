import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanbounds import calculus as calc
from jordanbounds import dsl
from jordanbounds.boundvalue import BoundValue, ONE as BV_ONE
from jordanbounds.calculus import (BoundTriple, TRIVIAL_TRIPLE, combine_extension,
                                   combine_product, gl_jordan_bound, leaf_triple,
                                   leaf_with_trace, make_triple, minkowski_bound,
                                   semisimple_jordan_bound)
from jordanbounds.caps import CapExceeded, Caps
from jordanbounds.extnat import INF, ExtNat

from oracles import reference_gl_floor


def bv(n):
    return BoundValue.from_int(n)


# --- closed-form constants --------------------------------------------------


def test_gl_jordan_bound_values():
    assert gl_jordan_bound(0) == 1
    assert gl_jordan_bound(1) == 14  # floor(9 + sqrt(32)) = 9 + 5
    assert gl_jordan_bound(2) == 390624  # 5^8 - 1: exact square forces strictness
    assert gl_jordan_bound(32) == 17 ** 2048 - 1  # 8*32 = 16^2


def test_gl_jordan_bound_is_exact_floor():
    # certified interval oracle: bound < (sqrt(8n)+1)^(2n^2) < bound + 2
    for n in range(1, 21):
        v = gl_jordan_bound(n)
        mpmath.iv.dps = len(str(v)) + 30
        true = (mpmath.iv.sqrt(8 * n) + 1) ** (2 * n * n)
        assert mpmath.iv.mpf(v) < true
        assert true < mpmath.iv.mpf(v + 2)


# every n <= 256 with 8n a perfect square: 8 * 2m^2 = (4m)^2
SQUARE_RADICANDS = [2 * m * m for m in range(1, 12)]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 97, 127, 190, 192, 255, 256] + SQUARE_RADICANDS)
def test_gl_jordan_bound_matches_the_exact_floor_oracle(n):
    # value < x <= value + 1 has one integer solution, so this pins the value
    assert reference_gl_floor(n, gl_jordan_bound(n))


def test_reference_gl_floor_decides_small_cases():
    assert reference_gl_floor(1, 14)  # (1 + sqrt 8)^2 = 9 + 2 sqrt 8 = 14.65...
    assert not reference_gl_floor(1, 15) and not reference_gl_floor(1, 13)
    assert reference_gl_floor(2, 5 ** 8 - 1)  # (1 + 4)^8 is an integer
    assert not reference_gl_floor(2, 5 ** 8)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.just(0), st.integers(0, 2 ** 64), st.integers(0, 2 ** 3000),
                 st.builds(lambda k, off: max(0, (1 << k) + off),  # near powers of two
                           st.integers(0, 3000), st.integers(-3, 3))),
       st.one_of(st.integers(1, 5000), st.integers(1, 70).map(lambda k: k * k)))
def test_floor_mul_sqrt_matches_isqrt(b, r):
    assert calc._floor_mul_sqrt(b, r) == math.isqrt(b * b * r)


@pytest.mark.parametrize("r", [2, 3, 8, 1000, 2040, 2047, 4999])
def test_inverse_sqrt_is_within_two_of_the_truth(r):
    for p in range(1, 4000, 3):
        y = calc._inverse_sqrt(r, p)
        # y - 2 < 2^p / sqrt(r) < y + 2, squared
        assert (y < 2 or r * (y - 2) ** 2 < 4 ** p) and 4 ** p < r * (y + 2) ** 2, p


def test_gl_jordan_bound_is_computed_once_per_n():
    gl_jordan_bound.cache_clear()
    triple, trace = dsl.evaluate(dsl.parse("product(gl(40), gl_q(40))"))
    replayed = trace.replay()
    assert replayed.j == triple.j
    info = gl_jordan_bound.cache_info()
    assert info.misses == 1 and info.hits >= 3


def test_minkowski_values():
    assert [minkowski_bound(n) for n in (1, 2, 3, 4)] == [2, 24, 48, 5760]
    assert minkowski_bound(5) == 11520
    with pytest.raises(ValueError):
        minkowski_bound(0)


def test_semisimple_jordan_bound():
    assert semisimple_jordan_bound(2) == BV_ONE
    assert semisimple_jordan_bound(3) == bv(gl_jordan_bound(3))
    assert semisimple_jordan_bound(4) == bv(gl_jordan_bound(3))


# --- leaves -------------------------------------------------------------------


def test_leaf_values():
    assert leaf_triple("torus", 2) == BoundTriple(BV_ONE, ExtNat(2), INF)
    assert leaf_triple("unipotent", 5) == BoundTriple(BV_ONE, ExtNat(0), ExtNat(1))
    assert leaf_triple("abelian_variety", 3) == BoundTriple(BV_ONE, ExtNat(6), INF)
    assert leaf_triple("finite", 6) == BoundTriple(bv(6), ExtNat(2), ExtNat(6))
    assert leaf_triple("finite", 1) == TRIVIAL_TRIPLE
    gl3 = leaf_triple("gl_field", 3)
    assert gl3.j == bv(gl_jordan_bound(3)) and gl3.rkf == 3 and not gl3.bd.is_finite
    ss = leaf_triple("semisimple", 3)
    assert ss.j == bv(gl_jordan_bound(3)) and ss.rkf == 3
    with pytest.raises(ValueError):
        leaf_triple("finite", 0)
    with pytest.raises(ValueError):
        leaf_triple("banana", 1)


def test_gl_rational_leaf_respects_order_bound():
    # Jordan component is clamped by the finite order bound
    t1 = leaf_triple("gl_rational", 1)
    assert t1 == BoundTriple(bv(2), ExtNat(1), ExtNat(2))
    t2 = leaf_triple("gl_rational", 2)
    assert t2.bd == 24 and t2.j == bv(24)


def test_triple_invariants_enforced():
    with pytest.raises(ValueError):
        BoundTriple(bv(5), ExtNat(0), ExtNat(2))  # j > finite bd
    with pytest.raises(ValueError):
        make_triple(BV_ONE, ExtNat(0), ExtNat(0))  # bd < 1
    clamped = make_triple(bv(100), ExtNat(1), ExtNat(7))
    assert clamped.j == bv(7)


# --- combination rules ----------------------------------------------------------


def test_extension_examples():
    out, trace = combine_extension(leaf_triple("unipotent", 3), leaf_triple("torus", 2))
    assert out == BoundTriple(BV_ONE, ExtNat(2), INF)
    assert "torsion-free" in trace.steps[-1].rule
    # rank additivity
    out, _ = combine_extension(leaf_triple("torus", 1), leaf_triple("abelian_variety", 1))
    assert out.rkf == 3
    # rank-power rule with a finite normal part
    t2 = BoundTriple(bv(5), ExtNat(2), INF)
    out, trace = combine_extension(leaf_triple("finite", 2), t2)
    assert out.j == bv(5) * bv(2).pow(4)
    assert "rank-power" in trace.steps[-1].rule


def test_extension_rule_choice_is_minimal():
    # when the quotient has a finite order bound, compare both rules
    normal = BoundTriple(bv(3), ExtNat(1), ExtNat(3))
    quotient = BoundTriple(bv(2), ExtNat(1), ExtNat(2))
    out, trace = combine_extension(normal, quotient)
    rule1 = bv(3) * bv(2)                 # Bd(G2) * J(G1)
    rule6 = bv(2) * bv(3).pow(1 * 3)      # J(G2) * Bd(G1)^(Rkf(G2) Bd(G1))
    assert out.j == min(rule1, rule6, key=lambda b: b.to_int())
    assert out.j == bv(6)
    assert out.bd == 6


def test_extension_no_rule_gives_infinite():
    av = leaf_triple("abelian_variety", 1)
    out, trace = combine_extension(av, av)
    assert out.j.is_infinite
    assert not out.bd.is_finite
    assert out.rkf == 4
    assert "no finiteness rule" in trace.steps[-1].rule


def test_extension_trivial_identity():
    for t in (leaf_triple("torus", 3), leaf_triple("gl_field", 2),
              leaf_triple("finite", 12), leaf_triple("abelian_variety", 2)):
        left, _ = combine_extension(TRIVIAL_TRIPLE, t)
        right, _ = combine_extension(t, TRIVIAL_TRIPLE)
        for out in (left, right):
            assert out.j == t.j and out.rkf == t.rkf and out.bd == t.bd


def test_product_examples():
    out, _ = combine_product(leaf_triple("torus", 1), leaf_triple("torus", 1))
    assert out == BoundTriple(BV_ONE, ExtNat(2), INF)
    out, _ = combine_product(leaf_triple("finite", 6), leaf_triple("abelian_variety", 1))
    assert out == BoundTriple(bv(6), ExtNat(4), INF)
    out, _ = combine_product(leaf_triple("gl_rational", 1), leaf_triple("gl_rational", 1))
    assert out.bd == 4 and out.j == bv(4)


_triples = st.builds(
    lambda j, r, b: make_triple(bv(j), ExtNat(r), INF if b is None else ExtNat(max(b, 1))),
    st.integers(1, 50), st.integers(0, 6),
    st.one_of(st.none(), st.integers(1, 50)))


@settings(max_examples=100, deadline=None)
@given(_triples, _triples)
def test_product_commutative(a, b):
    ab, _ = combine_product(a, b)
    ba, _ = combine_product(b, a)
    assert ab.j == ba.j and ab.rkf == ba.rkf and ab.bd == ba.bd


@settings(max_examples=60, deadline=None)
@given(_triples, _triples, _triples)
def test_product_associative(a, b, c):
    left, _ = combine_product(combine_product(a, b)[0], c)
    right, _ = combine_product(a, combine_product(b, c)[0])
    assert left.j == right.j and left.rkf == right.rkf and left.bd == right.bd


@settings(max_examples=100, deadline=None)
@given(_triples, _triples)
def test_combined_triples_keep_invariants(a, b):
    for out in (combine_product(a, b)[0], combine_extension(a, b)[0]):
        assert out.j.is_infinite or out.j.compare(BV_ONE) >= 0
        assert out.bd >= 1
        if out.bd.is_finite and not out.j.is_infinite:
            assert out.j.compare(bv(int(out.bd))) <= 0


def test_triples_with_an_infinite_order_bound_need_no_logarithm(monkeypatch):
    def no_log10(self, dps):
        raise AssertionError("certified log10 evaluated")

    monkeypatch.setattr(BoundValue, "_log10_ends", no_log10)
    gl64, _ = leaf_with_trace("gl_field", 64)
    assert not gl64.bd.is_finite
    out, _ = combine_product(gl64, gl64)
    assert out.j == gl64.j * gl64.j
    triple, _ = calc.connected_triple(2)
    assert not triple.bd.is_finite


# --- reductive / connected / variety bounds ----------------------------------------


def test_rank_bounds():
    assert calc.reductive_rank_bound(2) == 2
    assert calc.reductive_rank_bound(3) == 6
    assert calc.reductive_rank_bound(8) == 16
    assert calc.rank_bound_mod_commutator(0, 1) == 2
    assert calc.rank_bound_mod_commutator(3, 0) == 6
    assert calc.rank_bound_mod_commutator(4, 2) == 11
    assert calc.connected_rank_bound(0) == 0
    assert calc.connected_rank_bound(2) == 6
    assert calc.connected_rank_bound(3) == 12


def test_reductive_jordan_bound_examples():
    assert calc.reductive_jordan_bound(2) == BV_ONE
    assert calc.reductive_jordan_bound(3) == bv(gl_jordan_bound(3))
    assert calc.reductive_jordan_bound(14) == bv(gl_jordan_bound(16))


def test_connected_jordan_closed_form():
    assert calc.connected_jordan_bound(0)[0] == BV_ONE
    assert calc.connected_jordan_bound(1)[0] == BV_ONE
    v2, _ = calc.connected_jordan_bound(2)
    assert v2 == bv(4).pow(24)
    assert v2.to_int() == 4 ** 24
    v3, _ = calc.connected_jordan_bound(3)
    assert v3 == bv(gl_jordan_bound(3)) * bv(27).pow(324)


def _pipeline_value(n):
    """Assemble the connected-group bound from the primitive steps."""
    index = semisimple_jordan_bound(n)
    commutator = leaf_triple("finite", n ** n if n else 1)
    rank = calc.rank_bound_mod_commutator(n, n)
    abelianised = BoundTriple(BV_ONE, rank, INF)
    combined, _ = combine_extension(commutator, abelianised)
    return index * combined.j


def test_connected_closed_form_equals_pipeline():
    for n in range(7):
        closed, trace = calc.connected_jordan_bound(n)
        assert closed == _pipeline_value(n), n
        assert trace.replay() == closed


def test_aut0_bounds():
    v1, trace = calc.aut0_jordan_bound(1)
    assert v1 == bv(gl_jordan_bound(3)) * bv(256).pow(2816)
    assert calc.aut0_rank_bound(1) == 11
    assert trace.replay() == v1
    # the identity 4n + t + embedding_dim(t) recomputed independently
    from jordanbounds.enumeration import embedding_dim
    t = 4 * 1 * 1
    assert calc.aut0_rank_bound(1) == ExtNat(4 * 1 + t + embedding_dim(t))
    with pytest.raises(ValueError):
        calc.aut0_jordan_bound(0)


def test_aut0_cap_breach_is_explicit():
    with pytest.raises(CapExceeded):
        calc.aut0_jordan_bound(2, Caps(enumeration_dim=8))


def test_traces_replay_and_serialize():
    for maker in (lambda: calc.connected_triple(2),
                  lambda: calc.aut0_triple(1),
                  lambda: leaf_with_trace("gl_rational", 2)):
        triple, trace = maker()
        final = trace.replay()
        assert final == triple
        data = trace.to_json()
        assert all({"op", "rule", "statement", "inputs", "output"} <= set(d) for d in data)


def test_replay_table_is_exactly_the_emitted_ops():
    traces = [leaf_with_trace(kind, 3)[1] for kind in calc.LEAF_KINDS]
    torus, finite = leaf_triple("torus", 1), leaf_triple("finite", 6)
    traces.append(combine_extension(finite, leaf_triple("gl_rational", 2))[1])
    traces.append(combine_extension(torus, torus)[1])
    traces.append(combine_product(torus, finite)[1])
    traces += [calc.connected_triple(n)[1] for n in range(4)]
    traces.append(calc.aut0_triple(1)[1])
    steps = [step for trace in traces for step in trace.steps]
    assert "extension: no finiteness rule" in {step.rule for step in steps}
    for trace in traces:
        trace.replay()
    assert {step.op for step in steps} == set(calc._REPLAY)


def test_minkowski_divides_orders_of_rational_matrix_groups(corpus_groups):
    # bundled groups together with a dimension of a rational faithful
    # matrix representation
    embeddings = {
        "z2": 1,
        "s3": 2, "klein": 2, "z4": 2, "z6": 2, "d8": 2, "d12": 2,
        "s4": 3, "a4": 3,
        "s5": 4, "a5": 4, "sl25": 4, "q8": 4, "z2z4z3": 5,
    }
    for name, n in embeddings.items():
        order = corpus_groups[name].order
        assert minkowski_bound(n) % order == 0, (name, n)
