import random

import pytest

from jordanbounds import dsl
from jordanbounds.boundvalue import BoundValue, ONE as BV_ONE
from jordanbounds.calculus import BoundTriple, _same
from jordanbounds.caps import CapExceeded, Caps
from jordanbounds.dsl import (AbelianVariety, Aut0, BirConnected, Connected,
                              Extension, Finite, GL, GLRational, ParseError,
                              Product, Semisimple, Torus, Unipotent, evaluate,
                              parse, parse_file_text, print_expr)
from jordanbounds.extnat import INF, ExtNat
from jordanbounds.rootsystems import SimpleType


def test_parse_leaves():
    assert parse("torus(2)") == Torus(2)
    assert parse(" torus ( 2 ) ") == Torus(2)
    assert parse("unipotent(0)") == Unipotent(0)
    assert parse("finite(12)") == Finite(12)
    assert parse("gl(3)") == GL(3)
    assert parse("gl_q(2)") == GLRational(2)
    assert parse("connected(4)") == Connected(4)
    assert parse("aut0(1)") == Aut0(1)
    assert parse("bir_connected(2)") == BirConnected(2)
    assert parse("semisimple([A1], adjoint)") == Semisimple((SimpleType("A", 1),), "adjoint")
    assert parse("semisimple([A1,B3], sc)") == Semisimple(
        (SimpleType("A", 1), SimpleType("B", 3)), "sc")


def test_parse_nodes():
    e = parse("extension(unipotent(3), torus(2))")
    assert e == Extension(Unipotent(3), Torus(2))
    e = parse("product(semisimple([A1], adjoint), abelian_variety(1))")
    assert isinstance(e, Product) and len(e.children) == 2
    nested = parse("product(torus(1), extension(finite(2), product(torus(0), gl(1))))")
    assert isinstance(nested.children[1], Extension)


def test_parse_errors_carry_positions():
    cases = [
        ("torus(2", "end of input"),
        ("torus(x)", "integer"),
        ("frobble(2)", "unknown leaf"),
        ("finite(0)", "at least 1"),
        ("product(torus(1))", "at least two"),
        ("torus(2) torus(3)", "trailing"),
        ("torus(2)!", "unexpected character"),
        ("semisimple([B1], sc)", "inadmissible"),
        ("semisimple([A1], weird)", "sc or adjoint"),
        ("aut0(0)", "positive"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert fragment in str(err.value), text
        assert "position" in str(err.value)


def test_print_round_trip_examples():
    for text in ("torus(2)",
                 "extension(unipotent(3), torus(2))",
                 "product(semisimple([A1], adjoint), abelian_variety(1))"):
        e = parse(text)
        assert parse(print_expr(e)) == e


def _random_expr(rng: random.Random, depth: int, evaluable: bool = False):
    """Random well-formed tree.  With evaluable=True the numeric parameters
    stay at the scale where the enumeration caps cannot fire."""
    if depth <= 0 or rng.random() < 0.55:
        kind = rng.randrange(10)
        if kind == 0:
            return Torus(rng.randrange(0, 9))
        if kind == 1:
            return Unipotent(rng.randrange(0, 9))
        if kind == 2:
            return AbelianVariety(rng.randrange(0, 6))
        if kind == 3:
            return Finite(rng.randrange(1, 500))
        if kind == 4:
            return GL(rng.randrange(0, 5))
        if kind == 5:
            return GLRational(rng.randrange(1, 5))
        if kind == 6:
            if evaluable:
                pool = [("A1",), ("A2",), ("B2",), ("G2",), ("A3",),
                        ("A1", "A1"), ("A1", "A2"), ("A1", "B2")]
            else:
                pool = [("A1",), ("A2",), ("B2",), ("G2",), ("A3",), ("C3",),
                        ("D4",), ("A1", "D4"), ("C3", "E6")]
            types = tuple(SimpleType.parse(n) for n in rng.choice(pool))
            return Semisimple(types, rng.choice(["sc", "adjoint"]))
        if kind == 7:
            return Connected(rng.randrange(0, 7))
        if kind == 8:
            return Aut0(rng.randrange(1, 3))
        return BirConnected(rng.randrange(1, 3))
    if rng.random() < 0.5:
        k = rng.randrange(2, 4)
        return Product(tuple(_random_expr(rng, depth - 1, evaluable) for _ in range(k)))
    return Extension(_random_expr(rng, depth - 1, evaluable),
                     _random_expr(rng, depth - 1, evaluable))


def test_round_trip_1000_random_trees():
    rng = random.Random(170834)
    for _ in range(1000):
        e = _random_expr(rng, 3)
        assert parse(print_expr(e)) == e


def test_file_parsing_with_comments():
    text = """# structured description
    extension(
        unipotent(3),   # the unipotent radical
        torus(2)        # a maximal torus
    )
    """
    assert parse_file_text(text) == Extension(Unipotent(3), Torus(2))


def test_evaluate_leaves():
    triple, _ = evaluate(parse("torus(2)"))
    assert triple == BoundTriple(BV_ONE, ExtNat(2), INF)
    triple, _ = evaluate(parse("connected(2)"))
    assert triple.j == BoundValue.from_int(4).pow(24)
    assert triple.rkf == 6
    triple, _ = evaluate(parse("semisimple([A1], adjoint)"))
    assert triple.rkf == 3


def test_evaluate_extension_rule3_grid():
    for d in range(11):
        for r in range(11):
            triple, _ = evaluate(Extension(Unipotent(d), Torus(r)))
            assert triple == BoundTriple(BV_ONE, ExtNat(r), INF), (d, r)


def test_evaluate_product_and_reorder_invariance():
    e1 = parse("product(finite(6), abelian_variety(1))")
    t1, _ = evaluate(e1)
    assert t1 == BoundTriple(BoundValue.from_int(6), ExtNat(4), INF)
    e2 = parse("product(abelian_variety(1), finite(6))")
    t2, _ = evaluate(e2)
    assert t1.j == t2.j and t1.rkf == t2.rkf and t1.bd == t2.bd
    e3 = parse("product(torus(1), finite(8), gl_q(1))")
    t3, _ = evaluate(e3)
    e4 = parse("product(gl_q(1), torus(1), finite(8))")
    t4, _ = evaluate(e4)
    assert t3.j == t4.j and t3.rkf == t4.rkf and t3.bd == t4.bd


def test_trivial_extension_identity():
    for text in ("torus(3)", "gl(2)", "finite(10)", "connected(2)"):
        base, _ = evaluate(parse(text))
        left, _ = evaluate(Extension(Finite(1), parse(text)))
        right, _ = evaluate(Extension(parse(text), Finite(1)))
        for out in (left, right):
            assert out.j == base.j and out.rkf == base.rkf and out.bd == base.bd


def test_traces_replay_to_result():
    rng = random.Random(99)
    for _ in range(40):
        e = _random_expr(rng, 2, evaluable=True)
        triple, trace = evaluate(e)
        assert _same(trace.final, triple)
        assert _same(trace.replay(), triple)


def test_bir_connected_matches_aut0():
    for n in (1, 2):
        bir, bir_trace = evaluate(BirConnected(n))
        aut0, aut0_trace = evaluate(Aut0(n))
        assert bir == aut0
        assert bir_trace.to_json() == aut0_trace.to_json()


def test_caps_propagate_with_node_context():
    with pytest.raises(CapExceeded):
        evaluate(parse("semisimple([D4], sc)"), Caps(enumeration_dim=9))
    with pytest.raises(CapExceeded):
        evaluate(parse("connected(12)"), Caps(enumeration_dim=9))
