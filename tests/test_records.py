"""The records on the verbs' import path do without dataclasses; these tests
pin what they must keep: value equality, a hash equal to the hash of the
tuple of their fields (which fixes set and dict order, and so printed
output), their repr, their sort order, slots without an instance dict,
their error messages, and the clamp of a triple's Jordan bound."""

import functools

import pytest

from jordanbounds.abelian import FiniteAbelianGroup
from jordanbounds.boundvalue import INF, BoundValue, ONE
from jordanbounds.calculus import (BoundTriple, DerivationTrace, TraceStep,
                                   combine_product)
from jordanbounds.caps import Caps
from jordanbounds.dsl import Extension, Leaf, Product, Semisimple
from jordanbounds.enumeration import IsogenyClass, SemisimpleType
from jordanbounds.rootsystems import (DominantWeight, SimpleType, admissible_types,
                                      central_character)

A1, A2, B2 = SimpleType("A", 1), SimpleType("A", 2), SimpleType("B", 2)
A1A1 = SemisimpleType((A1, A1))


def _step(rule):
    triple = BoundTriple(BoundValue.from_int(2), 1, 2)
    return TraceStep("product", rule, "J multiplies", (triple, triple),
                     BoundTriple(BoundValue.from_int(4), 2, 4), combine_product)


# (make, make a different value, the fields == and repr read, hashed)
RECORDS = {
    "Caps": (Caps, functools.partial(Caps, center_order=8), Caps._fields, True),
    "FiniteAbelianGroup": (lambda: FiniteAbelianGroup([2, 4]),
                           lambda: FiniteAbelianGroup((8,)), ("factors",), True),
    "SimpleType": (lambda: SimpleType("A", 2), lambda: SimpleType("A", 3),
                   ("family", "rank"), True),
    "DominantWeight": (lambda: DominantWeight([1, 0]), lambda: DominantWeight((0, 1)),
                       ("coords",), True),
    "CentralCharacter": (lambda: central_character(A2, DominantWeight((1, 0))),
                         lambda: central_character(A2, DominantWeight((0, 1))),
                         ("center", "values"), True),
    "SemisimpleType": (lambda: SemisimpleType((B2, A1)), lambda: SemisimpleType((A1, B2, A1)),
                       ("factors",), True),
    "IsogenyClass": (lambda: IsogenyClass(A1A1, 0b0011), lambda: IsogenyClass(A1A1, 0b0101),
                     ("base", "kernel"), True),
    "Leaf": (lambda: Leaf("torus", 2), lambda: Leaf("torus", 3), ("name", "arg"), True),
    "Semisimple": (lambda: Semisimple((A1, B2), "sc"), lambda: Semisimple((A1, B2), "adjoint"),
                   ("types", "isogeny"), True),
    "Product": (lambda: Product((Leaf("torus", 1), Leaf("gl", 2))),
                lambda: Product((Leaf("gl", 2), Leaf("torus", 1))), ("children",), True),
    "Extension": (lambda: Extension(Leaf("unipotent", 1), Leaf("torus", 2)),
                  lambda: Extension(Leaf("torus", 2), Leaf("unipotent", 1)),
                  ("normal", "quotient"), True),
    "BoundTriple": (lambda: BoundTriple(BoundValue.from_int(6), 2, None),
                    lambda: BoundTriple(BoundValue.from_int(6), 2, 6), ("j", "rkf", "bd"), False),
    # redo is left out of == and of the repr
    "TraceStep": (lambda: _step("rule"), lambda: _step("other rule"),
                  ("op", "rule", "statement", "inputs", "output"), False),
    "DerivationTrace": (lambda: DerivationTrace([_step("rule")]), DerivationTrace,
                        ("steps",), False),
}


@pytest.mark.parametrize("make, other, fields, hashed", RECORDS.values(), ids=RECORDS)
def test_record_equality_hash_and_repr(make, other, fields, hashed):
    x, y, z = make(), make(), other()
    assert x == y and not x != y
    assert x != z and not x == z
    assert x != object()
    values = tuple(getattr(x, f) for f in fields)
    assert repr(x) == (type(x).__name__ + "("
                       + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")")
    if hashed:
        assert hash(x) == hash(values) == hash(y)
        assert len({x, y, z}) == 2
        with pytest.raises(AttributeError):
            setattr(x, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(x, fields[0])
    else:
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("make", [r[0] for r in RECORDS.values() if r[3]],
                         ids=[name for name, r in RECORDS.items() if r[3]])
def test_hashed_records_have_no_instance_dict(make):
    assert not hasattr(make(), "__dict__")


def test_derived_fields_are_stored_once():
    st = SemisimpleType((A1, B2, A2))
    assert st.center_moduli == (2, 3, 2) and st.center_moduli is st.center_moduli
    cls = IsogenyClass(A1A1, 0b0011)
    assert cls.kernel_generators is cls.kernel_generators


def test_triples_clamp_j_to_a_finite_order_bound():
    two = BoundValue.from_int(2)
    assert BoundTriple(BoundValue.from_int(5), 0, 2).j == two
    assert BoundTriple(INF, 0, 2).j == two
    assert BoundTriple(INF, 0, None).j is INF
    # a tie keeps the given j, and so its factors
    assert BoundTriple(BoundValue([(2, 4)]), 0, 16).j.factors == ((2, 4),)


def test_trace_step_repr_omits_redo():
    assert "redo" not in repr(_step("rule"))
    assert "combine_product" not in repr(_step("rule"))


def test_records_normalise_their_fields():
    assert FiniteAbelianGroup([2, 4]).factors == (2, 4)
    assert DominantWeight([1, 0]).coords == (1, 0)
    assert SemisimpleType([B2, A1, A2]).factors == (A1, A2, B2)
    assert DerivationTrace().steps == [] and DerivationTrace().steps is not DerivationTrace().steps
    assert IsogenyClass(A1A1, 0b0011).kernel_generators == ((0, 1),)


def test_simple_types_sort_by_family_then_rank():
    names = [str(t) for t in sorted(admissible_types(8))]
    assert names == ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
                     + [f"C{r}" for r in range(3, 9)] + [f"D{r}" for r in range(4, 9)]
                     + ["E6", "E7", "E8", "F4", "G2"])
    assert SimpleType("A", 9) < SimpleType("A", 10) <= SimpleType("A", 10)
    assert SimpleType("B", 2) > SimpleType("A", 10) >= SimpleType("A", 10)
    with pytest.raises(TypeError):
        SimpleType("A", 1) < ("A", 2)


INVALID = {
    "factor 1": (lambda: FiniteAbelianGroup((1,)), "invariant factor must exceed 1, got 1"),
    "no divisor chain": (lambda: FiniteAbelianGroup((2, 3)),
                         "invariant factors must form a divisor chain: (2, 3)"),
    "family": (lambda: SimpleType("H", 2), "unknown family 'H'"),
    "B1": (lambda: SimpleType("B", 1), "B1 is inadmissible: B needs rank >= 2"),
    "E5": (lambda: SimpleType("E", 5), "E5 is inadmissible: E exists for ranks 6, 7, 8"),
    "F3": (lambda: SimpleType("F", 3), "F3 is inadmissible: only F4 exists"),
    "G4": (lambda: SimpleType("G", 4), "G4 is inadmissible: only G2 exists"),
    "weight": (lambda: DominantWeight((1, -1)),
               "dominant weight needs non-negative coordinates: (1, -1)"),
    "kernel": (lambda: IsogenyClass(A1A1, 0b0111), "kernel is not closed under the group law"),
    "rkf": (lambda: BoundTriple(ONE, -1, None), "rank bound must be non-negative"),
    "bd": (lambda: BoundTriple(ONE, 0, 0), "order bound must be at least 1"),
}


@pytest.mark.parametrize("make, message", INVALID.values(), ids=INVALID)
def test_invalid_records_raise_the_same_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
