import math

import pytest

from jordanbounds import abelian, enumeration
from jordanbounds.caps import Caps, CapExceeded, DEFAULT_CAPS
from jordanbounds.enumeration import (IsogenyClass, SemisimpleType, class_table,
                                      embedding_dim, enumerate_semisimple,
                                      isogeny_classes, max_center_order,
                                      min_faithful_dim, quotient_center)
from jordanbounds.rootsystems import SimpleType, build_root_system

from oracles import (exhaustive_min_faithful, reference_faithful_dims, reference_min_faithful,
                     reference_summand_pool)

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)


def names(types):
    return [str(t) for t in types]


def cls_of(type_names, gens=()):
    base = SemisimpleType(tuple(SimpleType.parse(n) for n in type_names))
    return IsogenyClass.from_generators(base, gens)


def test_enumerate_semisimple_small():
    assert names(enumerate_semisimple(2)) == ["1"]
    assert names(enumerate_semisimple(3)) == ["1", "A1"]
    assert names(enumerate_semisimple(8)) == ["1", "A1", "A1xA1", "A2"]
    assert names(enumerate_semisimple(0)) == ["1"]
    listing = enumerate_semisimple(16)
    assert "A2xA2" in names(listing) and "A1xA1xA1xA1xA1" in names(listing)
    dims = [s.dim for s in listing]
    assert dims == sorted(dims)


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        enumerate_semisimple(100)
    small_caps = Caps(enumeration_dim=4)
    with pytest.raises(CapExceeded):
        enumerate_semisimple(5, small_caps)


def test_center_order_cap_names_the_moduli():
    caps = Caps(center_order=4)
    a1_cubed = SemisimpleType((A1, A1, A1))
    for call in (lambda: isogeny_classes(a1_cubed, caps),
                 lambda: abelian.all_subgroups((2, 2, 2), caps),
                 lambda: embedding_dim(9, caps)):
        with pytest.raises(CapExceeded) as err:
            call()
        assert err.value.module == "abelian"
        assert "(2, 2, 2)" in err.value.what
        assert err.value.observed == 8
    # the default cap: order 8192 is past 4096
    with pytest.raises(CapExceeded):
        abelian.all_subgroups((2, 4096))


def test_isogeny_class_validation():
    base = SemisimpleType((A1, A1))
    IsogenyClass.from_generators(base, [(1, 1)])
    with pytest.raises(ValueError):
        IsogenyClass(base, frozenset([(1, 1)]))  # missing identity
    with pytest.raises(ValueError):
        IsogenyClass(base, frozenset([(0, 0), (1, 0), (1, 1)]))  # not closed


def test_quotient_center():
    assert quotient_center(cls_of(["A1"], [(1,)])).is_trivial
    a3_halved = cls_of(["A3"], [(2,)])
    assert quotient_center(a3_halved).factors == (2,)
    diag = cls_of(["A1", "A1"], [(1, 1)])
    assert quotient_center(diag).factors == (2,)
    sc = cls_of(["A1", "A1"])
    assert quotient_center(sc).factors == (2, 2)


def test_quotient_center_never_exceeds_cover():
    for base in enumerate_semisimple(10):
        for cls in isogeny_classes(base):
            assert quotient_center(cls).order <= base.center_order
            assert quotient_center(cls).order * len(cls.kernel) == base.center_order


def test_min_faithful_examples():
    assert min_faithful_dim(cls_of(["A1"])) == 2
    assert min_faithful_dim(cls_of(["A1"], [(1,)])) == 3
    assert min_faithful_dim(cls_of(["A1", "A1"], [(1, 1)])) == 4
    assert min_faithful_dim(cls_of([])) == 0
    assert min_faithful_dim(cls_of(["A2"])) == 3
    assert min_faithful_dim(cls_of(["A2"], [(1,)])) == 8
    assert min_faithful_dim(cls_of(["G2"])) == 7
    assert min_faithful_dim(cls_of(["B2"])) == 4
    assert min_faithful_dim(cls_of(["B2"], [(1,)])) == 5
    assert min_faithful_dim(cls_of(["A3"], [(2,)])) == 6
    assert min_faithful_dim(cls_of(["A3"], [(1,)])) == 15


def test_min_faithful_agrees_with_per_kernel_search_dim15():
    count = 0
    for base in enumerate_semisimple(15):
        for cls in isogeny_classes(base):
            got = min_faithful_dim(cls)
            assert got == reference_min_faithful(cls, 512), cls.name()
            count += 1
    assert count == 492


def test_min_faithful_agrees_with_exhaustive_oracle_dim12_argmax():
    cls = cls_of(["A1"] * 4, [(0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1)])
    assert cls.name() == "A1xA1xA1xA1/(0,0,1,1)+(0,1,0,1)+(1,0,0,1)"
    assert min_faithful_dim(cls) == 16 == embedding_dim(12)
    assert exhaustive_min_faithful(cls, 16) == 16


def test_all_kernels_of_a_form_share_one_pass():
    base = SemisimpleType((A1,) * 4)
    classes = isogeny_classes(base)
    assert len(classes) == 67
    enumeration._faithful_dims.cache_clear()
    for cls in classes:
        min_faithful_dim(cls)
    assert enumeration._faithful_dims.cache_info().misses == 1


def test_summand_pool_matches_all_weights_reference():
    forms = [b for b in enumerate_semisimple(20) if not b.is_trivial]
    assert len(forms) == 24
    for base in forms:
        pool = enumeration._summand_pool(base)
        # each entry is the cheapest for its masks overall, so the entries
        # within a budget are the pool at that budget
        for budget in (2, 3, 5, 8, 16, 32, 64, 128):
            assert ([e for e in pool if e[0] <= budget]
                    == reference_summand_pool(base, budget)), (str(base), budget)


def test_pruned_search_matches_unpruned_reference():
    """Dropping dominated summands leaves every table as it was: one
    unpruned Dijkstra per form, over every summand up to dimension 128
    (twice the largest value), on all 24 forms of dimension <= 20."""
    forms = [b for b in enumerate_semisimple(20) if not b.is_trivial]
    assert len(forms) == 24 and SemisimpleType((A1,) * 6) in forms
    for base in forms:
        table = enumeration._faithful_dims(base, DEFAULT_CAPS)
        assert max(table.values()) <= 64
        assert table == reference_faithful_dims(base, 128), str(base)


@pytest.mark.parametrize("k,before,after", [(5, 242, 36), (6, 728, 69)])
def test_pruning_shrinks_the_sl2_power_pools(k, before, after):
    base = SemisimpleType((A1,) * k)
    pool = enumeration._summand_pool(base)
    assert len(pool) == before
    assert len(enumeration._undominated(pool, (1 << 2 ** k) - 1)) == after


def test_faithful_table_has_one_key_per_subgroup_within_the_generator_bound():
    """Every kernel K is reached, within dim G + rank(Z) * prod_i D_i: the
    adjoint plus one irreducible per generator of the characters of Z/K,
    D_i being factor i's dearest cheapest irreducible over its nontrivial
    central characters."""
    forms = [b for b in enumerate_semisimple(20) if not b.is_trivial]
    assert len(forms) == 24
    for base in forms:
        table = enumeration._faithful_dims(base, DEFAULT_CAPS)
        assert len(table) == len(abelian.all_subgroups(base.center_moduli)), str(base)
        dearest = [max((d for _, d, chars in build_root_system(f).cheapest_per_character()
                        if any(chars)), default=1) for f in base.factors]
        bound = base.dim + len(base.center.factors) * math.prod(dearest)
        assert max(table.values()) <= bound, (str(base), bound)


def test_min_faithful_agrees_with_exhaustive_oracle_dim10():
    for base in enumerate_semisimple(10):
        if base.is_trivial:
            continue
        for cls in isogeny_classes(base):
            got = min_faithful_dim(cls)
            cap = 2 * got
            assert exhaustive_min_faithful(cls, cap) == got, cls.name()


def test_direct_sum_bound_over_factors():
    for base in enumerate_semisimple(12):
        if base.is_trivial:
            continue
        sc = IsogenyClass.from_generators(base, [])
        total = sum(min_faithful_dim(
            IsogenyClass.from_generators(SemisimpleType((f,)), []))
            for f in base.factors)
        assert min_faithful_dim(sc) <= total


def test_embedding_dim_values():
    # the even-coordinate-sum quotients of SL2 powers dominate from dim 12 on
    assert [embedding_dim(n) for n in range(21)] == [
        0, 0, 0, 3, 3, 3, 6, 6, 8, 9, 9, 11, 16, 16, 16, 32, 32, 32, 64, 64, 64]


def test_embedding_dim_monotone():
    values = [embedding_dim(n) for n in range(17)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_max_center_order():
    # a simple factor of dimension d has center order at most 2^floor(d/3)
    # (A1: 2 at d = 3), and the floors of a product add up to floor(n/3)
    # at most; (A1)^k attains it
    for n in range(41):
        assert max_center_order(n) == 2 ** (n // 3), n
        assert max_center_order(n) <= n ** n


def test_class_table_shape():
    rows = class_table(6)
    by_name = {r["name"]: r for r in rows}
    assert by_name["A1"]["min_faithful_dim"] == "2"
    assert by_name["A1/adj"]["min_faithful_dim"] == "3"
    assert by_name["A1xA1/(1,1)"]["min_faithful_dim"] == "4"
    assert by_name["A1xA1/adj"]["kernel_order"] == "4"
    assert by_name["A1"]["center"] == ["2"]
    assert all(r["dim"] <= 6 for r in rows)


def test_class_naming():
    assert cls_of(["A1"]).name() == "A1"
    assert cls_of(["A1"], [(1,)]).name() == "A1/adj"
    assert cls_of(["A1", "A1"], [(1, 1)]).name() == "A1xA1/(1,1)"
    assert cls_of(["A3"], [(2,)]).name() == "A3/(2)"


def test_default_and_explicit_caps_share_one_embedding_entry():
    value = embedding_dim(7)
    before = enumeration._embedding_dim.cache_info()
    assert embedding_dim(7, DEFAULT_CAPS) == value
    after = enumeration._embedding_dim.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
