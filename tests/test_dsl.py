import hashlib
import json
import random
import re

import pytest

from jordanbounds import dsl
from jordanbounds.boundvalue import BoundValue, ONE as BV_ONE
from jordanbounds.calculus import BoundTriple
from jordanbounds.caps import CapExceeded, Caps
from jordanbounds.dsl import (Extension, Leaf, ParseError, Product, Semisimple,
                              evaluate, parse, parse_file_text, print_expr)
from jordanbounds.extnat import INF, ExtNat
from jordanbounds.rootsystems import SimpleType


def test_parse_leaves():
    assert parse("torus(2)") == Leaf("torus", 2)
    assert parse(" torus ( 2 ) ") == Leaf("torus", 2)
    assert parse("unipotent(0)") == Leaf("unipotent", 0)
    assert parse("finite(12)") == Leaf("finite", 12)
    assert parse("gl(3)") == Leaf("gl", 3)
    assert parse("gl_q(2)") == Leaf("gl_q", 2)
    assert parse("connected(4)") == Leaf("connected", 4)
    assert parse("aut0(1)") == Leaf("aut0", 1)
    assert parse("bir_connected(2)") == Leaf("bir_connected", 2)
    assert parse("semisimple([A1], adjoint)") == Semisimple((SimpleType("A", 1),), "adjoint")
    assert parse("semisimple([A1,B3], sc)") == Semisimple(
        (SimpleType("A", 1), SimpleType("B", 3)), "sc")


# leaf name -> (least argument, ParseError text one below it, sha256 of the
# sorted-key trace.to_json() at the least argument and at 2)
_LEAF_PINS = {
    "torus": (0, "unexpected character '-' (at position 6)",
              "bdd9c29bccc341dd1879158cc54741878ff7882ee5d0ffa5881d52917c4cbd71",
              "0844d95af9295c3e4a9206d938bad7b2ef846af6eb5a410b71e1b7a83af31454"),
    "unipotent": (0, "unexpected character '-' (at position 10)",
                  "0888ee23c1ac250cac9f70c9b3ff0257bcbf67794ad9f53a7088bd4f53cc6c0d",
                  "15c6deba46b76bf5035f3f5a05855d61e569ebaecdd56c5c707a6003e2ef1b9c"),
    "abelian_variety": (0, "unexpected character '-' (at position 16)",
                        "5f2e8dacbc2f0fdd8d91812ed2883fe4c072bec1e4168238884ee18f7e9b54fd",
                        "3275402391c22af73ba2cc882117de633780b40d51dc1441e780199a418d9307"),
    "finite": (1, "finite group order must be at least 1 (at position 7)",
               "49fb998a94384f3c2e1d083f698ae49b32b6d2d08ee2edf44aaeee4f5a489682",
               "8c4fc1a85152e0c47108b48dffd6cac709b557314bd89e514fd2cd57b2b6ffa6"),
    "gl": (0, "unexpected character '-' (at position 3)",
           "e404e41f7e7d8de79653d3b54f75c7192d33643c7e60f9d768e0a7638a37038b",
           "a01ad2d0d6b06835abe548b0deb9a4b93a1ba3289072b4741c396569276d4562"),
    "gl_q": (1, "gl_q needs a positive dimension (at position 5)",
             "dea19d209eee014febab0812b523378c6bd86f7f738b0391fed5decfd801ac94",
             "c44f80332064b574c82bb571519732d5c06c629abfbe5ce7e0de3b72701bb276"),
    "connected": (0, "unexpected character '-' (at position 10)",
                  "41bd8c23557cfc9025eabbed5af58c2521db826cffd1deb5fa823f823de05343",
                  "1f2c0cb9a1aeb7768b0f5224ab577074807bfa8e0ed1b3425ccf73af9378f794"),
    "aut0": (1, "aut0 needs a positive variety dimension (at position 5)",
             "09ad2a45ba28e63905aa963e42d727d2689d67898ceec36a5f9e54846827641d",
             "36fe87c2ae2c31fd1331c72a44002c3a64a357f2dd2c558fe87d94c59de27e94"),
    "bir_connected": (1, "bir_connected needs a positive variety dimension (at position 14)",
                      "09ad2a45ba28e63905aa963e42d727d2689d67898ceec36a5f9e54846827641d",
                      "36fe87c2ae2c31fd1331c72a44002c3a64a357f2dd2c558fe87d94c59de27e94"),
}


def test_leaf_pins_cover_the_table():
    assert set(_LEAF_PINS) == set(dsl._LEAVES)


@pytest.mark.parametrize("name", sorted(_LEAF_PINS))
def test_leaf_table_row(name):
    least, below_error, *digests = _LEAF_PINS[name]
    assert least == (0 if dsl._LEAVES[name][1] is None else 1)
    for k, digest in zip((least, 2), digests):
        e = parse(f"{name}({k})")
        assert e == Leaf(name, k)
        assert print_expr(e) == f"{name}({k})"
        assert parse(print_expr(e)) == e
        _, trace = evaluate(e)
        dumped = json.dumps(trace.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(dumped).hexdigest() == digest, k
    with pytest.raises(ParseError) as err:
        parse(f"{name}({least - 1})")
    assert str(err.value) == below_error


def test_docstring_names_every_leaf():
    leaves = dsl.__doc__.split("Leaves:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"\b([a-z_0-9]+)\(", leaves)) == set(dsl._LEAVES) | {"semisimple"}


def test_parse_nodes():
    e = parse("extension(unipotent(3), torus(2))")
    assert e == Extension(Leaf("unipotent", 3), Leaf("torus", 2))
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


# leaf kinds drawn by _random_expr: (name, least arg, bound); None is semisimple
_RANDOM_LEAVES = [("torus", 0, 9), ("unipotent", 0, 9), ("abelian_variety", 0, 6),
                  ("finite", 1, 500), ("gl", 0, 5), ("gl_q", 1, 5), None,
                  ("connected", 0, 7), ("aut0", 1, 3), ("bir_connected", 1, 3)]


def _random_expr(rng: random.Random, depth: int, evaluable: bool = False):
    """Random well-formed tree.  With evaluable=True the numeric parameters
    stay at the scale where the enumeration caps cannot fire."""
    if depth <= 0 or rng.random() < 0.55:
        leaf = _RANDOM_LEAVES[rng.randrange(10)]
        if leaf is not None:
            name, lo, hi = leaf
            return Leaf(name, rng.randrange(lo, hi))
        if evaluable:
            pool = [("A1",), ("A2",), ("B2",), ("G2",), ("A3",),
                    ("A1", "A1"), ("A1", "A2"), ("A1", "B2")]
        else:
            pool = [("A1",), ("A2",), ("B2",), ("G2",), ("A3",), ("C3",),
                    ("D4",), ("A1", "D4"), ("C3", "E6")]
        types = tuple(SimpleType.parse(n) for n in rng.choice(pool))
        return Semisimple(types, rng.choice(["sc", "adjoint"]))
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
    assert parse_file_text(text) == Extension(Leaf("unipotent", 3), Leaf("torus", 2))


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
            triple, _ = evaluate(Extension(Leaf("unipotent", d), Leaf("torus", r)))
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
        left, _ = evaluate(Extension(Leaf("finite", 1), parse(text)))
        right, _ = evaluate(Extension(parse(text), Leaf("finite", 1)))
        for out in (left, right):
            assert out.j == base.j and out.rkf == base.rkf and out.bd == base.bd


def test_traces_replay_to_result():
    rng = random.Random(99)
    for _ in range(40):
        e = _random_expr(rng, 2, evaluable=True)
        triple, trace = evaluate(e)
        assert trace.final == triple
        assert trace.replay() == triple


def test_bir_connected_matches_aut0():
    for n in (1, 2):
        bir, bir_trace = evaluate(Leaf("bir_connected", n))
        aut0, aut0_trace = evaluate(Leaf("aut0", n))
        assert bir == aut0
        assert bir_trace.to_json() == aut0_trace.to_json()


def test_caps_propagate_with_node_context():
    with pytest.raises(CapExceeded):
        evaluate(parse("semisimple([D4], sc)"), Caps(enumeration_dim=9))
    with pytest.raises(CapExceeded):
        evaluate(parse("connected(12)"), Caps(enumeration_dim=9))
