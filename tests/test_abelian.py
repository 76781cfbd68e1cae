import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanbounds import abelian
from jordanbounds.abelian import FiniteAbelianGroup
from jordanbounds.caps import CapExceeded, Caps

from oracles import (brute_force_subgroup_count, reference_quotient_invariants,
                     reference_subgroup_closure)


def test_invariant_factor_validation():
    FiniteAbelianGroup((2, 4))
    FiniteAbelianGroup(())
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((2, 3))


def test_from_moduli_canonicalises():
    assert FiniteAbelianGroup.from_moduli((2, 3)).factors == (6,)
    assert FiniteAbelianGroup.from_moduli((2, 4, 3)).factors == (2, 12)
    assert FiniteAbelianGroup.from_moduli((2, 2)).factors == (2, 2)
    assert FiniteAbelianGroup.from_moduli(()).factors == ()
    assert FiniteAbelianGroup.from_moduli((1, 1)).factors == ()
    assert FiniteAbelianGroup.from_moduli((12, 18)).factors == (6, 36)


def test_element_orders():
    moduli = (2, 4, 3)
    assert abelian.element_order((0, 0, 0), moduli) == 1
    assert abelian.element_order((1, 0, 0), moduli) == 2
    assert abelian.element_order((1, 1, 1), moduli) == 12
    assert abelian.element_order((0, 2, 0), moduli) == 2


def test_invariants_from_orders_round_trip():
    for factors in [(), (2,), (4,), (2, 2), (2, 4), (3, 3), (2, 12), (2, 2, 2),
                    (5,), (2, 6, 12)]:
        grp = FiniteAbelianGroup(factors)
        orders = [grp.element_order(e) for e in grp.elements()]
        assert abelian.invariants_from_orders(orders) == factors


def _invariants(elems, moduli):
    return abelian.invariants_from_orders([abelian.element_order(e, moduli) for e in elems])


def test_subgroup_counts_against_subset_oracle():
    for moduli in [(2,), (4,), (2, 2), (3,), (6,), (2, 4), (2, 2, 2)]:
        got = len(abelian.all_subgroups(moduli))
        assert got == brute_force_subgroup_count(moduli), moduli


def test_subgroup_and_quotient_invariants():
    moduli = (4,)
    subs = abelian.all_subgroups(moduli)
    assert [len(s) for s in subs] == [1, 2, 4]
    order2 = subs[1]
    assert _invariants(order2, moduli) == (2,)
    assert abelian.quotient_invariants(moduli, order2) == (2,)
    moduli = (2, 2)
    diag = abelian.subgroup_closure([(1, 1)], moduli)
    assert abelian.quotient_invariants(moduli, diag) == (2,)
    assert _invariants(diag, moduli) == (2,)
    full = abelian.subgroup_closure([(1, 0), (0, 1)], moduli)
    assert abelian.quotient_invariants(moduli, full) == ()


def test_center_subgroup_helpers():
    moduli = (2, 2)
    sub = abelian.subgroup_closure([(1, 1)], moduli)
    assert len(sub) == 2
    assert _invariants(sub, moduli) == (2,)
    assert abelian.minimal_generators(sub, moduli) == ((1, 1),)
    assert (1, 1) in sub and (1, 0) not in sub


def test_minimal_generators_regenerate():
    moduli = (2, 4, 3)
    full = abelian.subgroup_closure([(1, 0, 0), (0, 1, 0), (0, 0, 1)], moduli)
    gens = abelian.minimal_generators(full, moduli)
    assert abelian.subgroup_closure(gens, moduli) == full
    assert len(gens) == 2  # Z2 x Z4 x Z3 = Z2 x Z12 needs two generators


@st.composite
def _moduli_and_generators(draw):
    moduli = tuple(draw(st.lists(st.integers(1, 6), min_size=0, max_size=4)))
    element = st.tuples(*[st.integers(0, m - 1) for m in moduli])
    gens = draw(st.lists(element, max_size=4))
    return moduli, gens


@settings(max_examples=200, deadline=None)
@given(_moduli_and_generators())
def test_subgroup_closure_matches_fixpoint_reference(case):
    moduli, gens = case
    assert abelian.subgroup_closure(gens, moduli) == reference_subgroup_closure(gens, moduli)


def _divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize("moduli,count", [
    ((2,) * k, c) for k, c in enumerate([1, 2, 5, 16, 67, 374, 2825])
] + [((3, 3, 3), 28)] + [((n,), _divisor_count(n)) for n in (1, 2, 7, 12, 60, 64, 210)])
def test_subgroup_counts_match_closed_forms(moduli, count):
    subs = abelian.all_subgroups(moduli)
    assert len(subs) == count
    assert subs == sorted(subs, key=lambda s: (len(s), sorted(s)))
    if count <= 400:  # the fixpoint closure is quadratic in the subgroup order
        for sub in subs:
            assert reference_subgroup_closure(sub, moduli) == sub


@pytest.mark.parametrize("moduli", [(2, 2, 2, 2), (4, 4), (2, 3, 4), (6, 6)])
def test_quotient_invariants_match_coset_reference(moduli):
    for sub in abelian.all_subgroups(moduli):
        assert (abelian.quotient_invariants(moduli, sub)
                == reference_quotient_invariants(moduli, sub)), sorted(sub)


@pytest.mark.parametrize("moduli,caps,limit,observed", [
    ((2,) * 5, Caps(subgroup_count=1000), 512_000, 373),
    ((64, 64), Caps(), 51_200_000, 193),
])
def test_work_guard_trips_where_it_always_has(moduli, caps, limit, observed):
    # limit and observed were recorded from the fixpoint-closure walk; the
    # guard charges that walk's nominal cost, so breaches must not move
    with pytest.raises(CapExceeded) as err:
        abelian.all_subgroups(moduli, caps)
    assert err.value.what == f"subgroup enumeration work on moduli {moduli}"
    assert (err.value.limit, err.value.observed) == (limit, observed)


# Where the walk stops under subgroup_count caps 5, 30, 100, 300, 1000 and
# the default, recorded from the element-by-element walk (one closure per z
# outside each subgroup, in code order): ("count", n) and ("work", n) are
# breaches that had reached n subgroups, a bare n a finished walk.
_GUARD_CAPS = (5, 30, 100, 300, 1000, None)
_GUARD_GRID = {
    (2,) * 4: [("count", 6), ("count", 31), 67, 67, 67, 67],
    (2,) * 5: [("count", 6), ("count", 31), ("count", 101), ("count", 301), ("work", 373), 374],
    (2,) * 6: [("count", 6), ("count", 31), ("count", 101), ("count", 301), ("count", 1001), 2825],
    (2,) * 7: [("count", 6), ("count", 31), ("count", 101), ("count", 301), ("count", 1001),
               ("work", 19441)],
    (4, 4): [("count", 6), 15, 15, 15, 15, 15],
    (2, 2, 4): [("count", 6), ("work", 27), 27, 27, 27, 27],
    (6, 6): [("count", 6), ("work", 30), ("work", 30), ("work", 30), 30, 30],
    (3, 3, 3): [("count", 6), ("work", 28), ("work", 28), 28, 28, 28],
    (2, 2, 2, 4): [("count", 6), ("count", 31), ("count", 101), ("work", 116), 118, 118],
    (4, 8): [("count", 6), ("work", 22), ("work", 22), 22, 22, 22],
    (2, 3, 4): [("count", 6), ("work", 16), 16, 16, 16, 16],
    (64, 64): [("count", 6), ("count", 31), ("count", 101), ("work", 183), ("work", 190),
               ("work", 193)],
    (4096,): [("work", 1), ("work", 3), ("work", 5), ("work", 6), ("work", 8), None],
}


@pytest.mark.parametrize("moduli", list(_GUARD_GRID), ids=str)
def test_guards_trip_where_the_element_walk_tripped(moduli):
    for cap, expected in zip(_GUARD_CAPS, _GUARD_GRID[moduli]):
        if expected is None:
            continue  # (4096,) under the default cap takes seconds
        caps = Caps() if cap is None else Caps(subgroup_count=cap)
        if isinstance(expected, int):
            assert len(abelian.all_subgroups(moduli, caps)) == expected, cap
            continue
        with pytest.raises(CapExceeded) as err:
            abelian.all_subgroups(moduli, caps)
        kind, observed = expected
        what = "subgroup count" if kind == "count" else "subgroup enumeration work"
        limit = caps.subgroup_count * (1 if kind == "count" else 512)
        assert err.value.what == f"{what} on moduli {moduli}", cap
        assert (err.value.limit, err.value.observed) == (limit, observed), cap
