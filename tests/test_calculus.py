import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanbounds import boundvalue
from jordanbounds import calculus as calc
from jordanbounds import dsl
from jordanbounds.boundvalue import INF as BV_INF, BoundValue, ONE as BV_ONE, decimal
from jordanbounds.calculus import (BoundTriple, TRIVIAL_TRIPLE, combine_extension,
                                   combine_product, gl_jordan_bound, leaf_triple,
                                   leaf_with_trace, make_triple, minkowski_bound,
                                   semisimple_jordan_bound)
from jordanbounds.caps import CapExceeded, Caps

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
        y = calc._newton_inverse_sqrt(r, p)[0]
        # y - 2 < 2^p / sqrt(r) < y + 2, squared
        assert (y < 2 or r * (y - 2) ** 2 < 4 ** p) and 4 ** p < r * (y + 2) ** 2, p


@pytest.mark.parametrize("r", [1, 2, 3, 8, 1000, 2047, 4999])
def test_inverse_sqrt_error_bound_holds(r):
    rng = random.Random(r)
    for p in [rng.randrange(1, 4000) for _ in range(60)]:
        y, err = calc._newton_inverse_sqrt(r, p)
        if err is None:  # no Newton step: only for p at the float's precision
            assert p <= 50 + (r.bit_length() + 1) // 2
            continue
        # 0 <= 2^p / sqrt(r) - y < err, squared
        assert r * y * y <= 4 ** p < r * (y + err) ** 2, p


def _pell(r, x, y, above):
    """A solution of x^2 - r*y^2 = 1 with x past `above`, from a
    fundamental one by powers of x + y*sqrt(r)."""
    x1, y1 = x, y
    while x <= above:
        x, y = x * x1 + r * y * y1, x * y1 + y * x1
    return x, y


@pytest.fixture
def settle_spy(monkeypatch):
    calls = []
    settle = calc._settle_root

    def spy(n, root):
        calls.append(n)
        return settle(n, root)

    monkeypatch.setattr(calc, "_settle_root", spy)
    return calls


@pytest.mark.parametrize("r,x,y", [(2, 3, 2), (3, 2, 1), (5, 9, 4), (8, 3, 1), (1000, 39480499, 1248483)])
def test_floor_mul_sqrt_steps_exactly_next_to_an_integer(settle_spy, r, x, y):
    # x^2 - r*y^2 = 1, so y*sqrt(r) lies within 1/(2x) < 2^-40 below x
    x, y = _pell(r, x, y, 2 ** 40)
    assert x * x - r * y * y == 1
    assert calc._floor_mul_sqrt(y, r) == x - 1
    assert settle_spy


@pytest.mark.parametrize("r", [9, 25, 49, 121, 2025])
def test_floor_mul_sqrt_steps_exactly_on_perfect_squares(settle_spy, r):
    b = 3 ** 300 + 7
    assert calc._floor_mul_sqrt(b, r) == b * math.isqrt(r)
    assert settle_spy


@pytest.mark.parametrize("n", [64, 128, 190, 192, 256])
def test_gl_jordan_bound_certifies_its_floor_without_stepping(settle_spy, n):
    gl_jordan_bound.cache_clear()
    assert reference_gl_floor(n, gl_jordan_bound(n))
    assert not settle_spy


def test_gl_jordan_bound_is_computed_once_per_n():
    gl_jordan_bound.cache_clear()
    triple, trace = dsl.evaluate(dsl.parse("product(gl(40), gl_q(40))"))
    replayed = trace.replay()
    assert replayed.j == triple.j
    info = gl_jordan_bound.cache_info()
    # gl(40) is computed once and read back once by the replay; gl_q(40)
    # takes Minkowski's bound without the GL bound
    assert info.misses == 1 and info.hits == 1


def test_minkowski_clamp_certificate_holds():
    # sqrt(8n) + 1 >= 2^k, so the GL bound is at least 2^(2n^2 k) - 1
    for n in range(1, 2001):
        k = (math.isqrt(8 * n) + 1).bit_length() - 1
        assert minkowski_bound(n).bit_length() <= 2 * n * n * k, n


def test_gl_rational_leaf_equals_the_exact_clamp():
    for n in list(range(1, 65)) + [190]:
        assert leaf_triple("gl_rational", n) == make_triple(
            bv(gl_jordan_bound(n)), n, minkowski_bound(n)), n


def test_gl_rational_leaf_does_not_compute_the_gl_bound():
    gl_jordan_bound.cache_clear()
    triple, trace = dsl.evaluate(dsl.parse("gl_q(190)"))
    assert triple.j == bv(minkowski_bound(190))
    assert gl_jordan_bound.cache_info().misses == 0


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
    assert leaf_triple("torus", 2) == BoundTriple(BV_ONE, 2, None)
    assert leaf_triple("unipotent", 5) == BoundTriple(BV_ONE, 0, 1)
    assert leaf_triple("abelian_variety", 3) == BoundTriple(BV_ONE, 6, None)
    assert leaf_triple("finite", 6) == BoundTriple(bv(6), 2, 6)
    assert leaf_triple("finite", 1) == TRIVIAL_TRIPLE
    gl3 = leaf_triple("gl_field", 3)
    assert gl3.j == bv(gl_jordan_bound(3)) and gl3.rkf == 3 and gl3.bd is None
    ss = leaf_triple("semisimple", 3)
    assert ss.j == bv(gl_jordan_bound(3)) and ss.rkf == 3
    with pytest.raises(ValueError):
        leaf_triple("finite", 0)
    with pytest.raises(ValueError):
        leaf_triple("banana", 1)
    # no truncation or coercion of the parameter
    for kind, param in (("torus", 2.9), ("finite", "6"), ("gl_field", True)):
        with pytest.raises(ValueError, match=f"{kind} parameter must be an integer"):
            leaf_triple(kind, param)


def test_gl_rational_leaf_respects_order_bound():
    # Jordan component is clamped by the finite order bound
    t1 = leaf_triple("gl_rational", 1)
    assert t1 == BoundTriple(bv(2), 1, 2)
    t2 = leaf_triple("gl_rational", 2)
    assert t2.bd == 24 and t2.j == bv(24)


def test_triple_invariants_enforced():
    with pytest.raises(ValueError):
        BoundTriple(bv(5), 0, 2)  # j > finite bd
    with pytest.raises(ValueError):
        make_triple(BV_ONE, 0, 0)  # bd < 1
    clamped = make_triple(bv(100), 1, 7)
    assert clamped.j == bv(7)


def test_an_infinite_jordan_bound_needs_an_unbounded_order():
    with pytest.raises(ValueError, match="may not exceed a finite order bound"):
        BoundTriple(BV_INF, 0, 2)
    assert str(BoundTriple(BV_INF, 0, None)) == "(J<=inf, Rkf<=0, Bd<=inf)"
    with pytest.raises(ValueError, match="rank bound must be non-negative"):
        BoundTriple(BV_ONE, -1, None)


def test_an_order_bound_past_the_str_digit_limit_renders(int_str_limit):
    triple, _ = dsl.evaluate(dsl.parse("product(gl_q(1200), gl_q(1200))"))
    bd = decimal(minkowski_bound(1200) ** 2)
    assert len(bd) == 7660
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    assert str(triple).endswith(f", Bd<={bd})")
    sys.set_int_max_str_digits(4300)
    assert triple.to_json(max_digits=100)["bd"] == bd


def test_reprs_past_the_str_digit_limit(int_str_limit):
    sys.set_int_max_str_digits(0)
    gl48 = str(calc.gl_jordan_bound(48))
    gl64 = str(calc.gl_jordan_bound(64))
    bd = str(minkowski_bound(1200) ** 2)
    assert min(len(gl48), len(gl64), len(bd)) > 4300
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    value = BoundValue.from_int(calc.gl_jordan_bound(48))
    assert repr(value) == f"BoundValue([({gl48}, 1)])"
    triple = make_triple(value, 48, None)
    assert repr(triple) == f"BoundTriple(j=BoundValue([({gl48}, 1)]), rkf=48, bd=None)"
    triple, trace = dsl.evaluate(dsl.parse("gl(64)"))
    assert f"({gl64}, 1)" in repr(trace.steps[-1])
    triple, _ = dsl.evaluate(dsl.parse("product(gl_q(1200), gl_q(1200))"))
    assert repr(triple).endswith(f", bd={bd})")
    assert sys.get_int_max_str_digits() == 4300


# --- combination rules ----------------------------------------------------------


def test_extension_examples():
    out, trace = combine_extension(leaf_triple("unipotent", 3), leaf_triple("torus", 2))
    assert out == BoundTriple(BV_ONE, 2, None)
    assert "torsion-free" in trace.steps[-1].rule
    # rank additivity
    out, _ = combine_extension(leaf_triple("torus", 1), leaf_triple("abelian_variety", 1))
    assert out.rkf == 3
    # rank-power rule with a finite normal part
    t2 = BoundTriple(bv(5), 2, None)
    out, trace = combine_extension(leaf_triple("finite", 2), t2)
    assert out.j == bv(5) * bv(2).pow(4)
    assert "rank-power" in trace.steps[-1].rule


def test_extension_rule_choice_is_minimal():
    # when the quotient has a finite order bound, compare both rules
    normal = BoundTriple(bv(3), 1, 3)
    quotient = BoundTriple(bv(2), 1, 2)
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
    assert out.bd is None
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
    assert out == BoundTriple(BV_ONE, 2, None)
    out, _ = combine_product(leaf_triple("finite", 6), leaf_triple("abelian_variety", 1))
    assert out == BoundTriple(bv(6), 4, None)
    out, _ = combine_product(leaf_triple("gl_rational", 1), leaf_triple("gl_rational", 1))
    assert out.bd == 4 and out.j == bv(4)


_triples = st.builds(
    lambda j, r, b: make_triple(bv(j), r, None if b is None else max(b, 1)),
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
        if out.bd is not None:
            assert out.bd >= 1 and out.j.compare(bv(out.bd)) <= 0


def test_triples_with_an_infinite_order_bound_need_no_logarithm(monkeypatch):
    def no_log(*args):
        raise AssertionError("certified logarithm evaluated")

    monkeypatch.setattr(boundvalue, "_log2_bounds", no_log)
    gl64, _ = leaf_with_trace("gl_field", 64)
    assert gl64.bd is None
    out, _ = combine_product(gl64, gl64)
    assert out.j == gl64.j * gl64.j
    triple, _ = calc.connected_triple(2)
    assert triple.bd is None


# --- connected / variety bounds ----------------------------------------


def test_rank_bounds():
    assert calc.rank_bound_mod_commutator(0, 1) == 2
    assert calc.rank_bound_mod_commutator(3, 0) == 6
    assert calc.rank_bound_mod_commutator(4, 2) == 11
    assert calc.connected_rank_bound(0) == 0
    assert calc.connected_rank_bound(2) == 6
    assert calc.connected_rank_bound(3) == 12


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
    abelianised = BoundTriple(BV_ONE, rank, None)
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
    assert calc.aut0_rank_bound(1) == 4 * 1 + t + embedding_dim(t)
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
    # the fixed op names README lists for the serialised trace
    assert {step.op for step in steps} == {
        "leaf", "combine_extension", "combine_product", "central_commutator_order",
        "rank_bound_mod_commutator", "scale", "semisimple_jordan_bound",
        "connected_triple", "reductive_dim_bound", "antiaffine_dim_bound",
        "aut0_triple"}


def test_replay_runs_under_the_caps_each_trace_was_made_with(monkeypatch):
    from jordanbounds import enumeration
    caps = Caps(decimal_digits=123)
    seen = []
    embedding_dim = enumeration.embedding_dim

    def spy(n, used):
        seen.append(used)
        return embedding_dim(n, used)

    monkeypatch.setattr(enumeration, "embedding_dim", spy)
    for text in ("connected(3)", "aut0(1)", "semisimple([A1,A1],sc)"):
        triple, trace = dsl.evaluate(dsl.parse(text), caps)
        seen.clear()
        assert trace.replay() == triple
        assert seen and all(c is caps for c in seen), text


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
