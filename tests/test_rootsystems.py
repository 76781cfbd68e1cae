from fractions import Fraction

import pytest

from jordanbounds import abelian
from jordanbounds.abelian import FiniteAbelianGroup
from jordanbounds.rootsystems import (DominantWeight, SimpleType,
                                      admissible_types, build_root_system,
                                      catalog_entry, central_character, weyl_dim)

from oracles import element_order, elements_of

A1 = SimpleType("A", 1)
w = DominantWeight


# the classification table, frozen independently of the implementation
TABLE_RANK4 = {
    "A1": (3, 1, (2,)), "A2": (8, 2, (3,)), "A3": (15, 3, (4,)), "A4": (24, 4, (5,)),
    "B2": (10, 2, (2,)), "B3": (21, 3, (2,)), "B4": (36, 4, (2,)),
    "C3": (21, 3, (2,)), "C4": (36, 4, (2,)),
    "D4": (28, 4, (2, 2)),
    "F4": (52, 4, ()), "G2": (14, 2, ()),
}


def test_admissibility():
    for name in ("A1", "B2", "C3", "D4", "E6", "E7", "E8", "F4", "G2"):
        SimpleType.parse(name)
    for bad in ("B1", "C2", "D3", "E5", "E9", "F3", "G4", "H2"):
        with pytest.raises(ValueError):
            SimpleType.parse(bad)
    with pytest.raises(ValueError):
        SimpleType.parse("A0")


def test_catalog_table_rank4():
    for name, (dim, rank, center) in TABLE_RANK4.items():
        entry = catalog_entry(SimpleType.parse(name))
        assert entry == (dim, rank, FiniteAbelianGroup(center)), name


def test_catalog_examples():
    assert catalog_entry(SimpleType.parse("A3")) == (15, 3, FiniteAbelianGroup((4,)))
    e8 = catalog_entry(SimpleType.parse("E8"))
    assert e8.dim == 248 and e8.rank == 8 and e8.center.is_trivial
    g2 = catalog_entry(SimpleType.parse("G2"))
    assert g2 == (14, 2, FiniteAbelianGroup(()))
    # D family splits by parity
    assert catalog_entry(SimpleType.parse("D5")).center.factors == (4,)
    assert catalog_entry(SimpleType.parse("D6")).center.factors == (2, 2)


def test_simple_type_inequalities_to_rank_50():
    for t in admissible_types(50):
        entry = catalog_entry(t)
        assert entry.center.order <= entry.rank + 1
        assert entry.rank + 1 < entry.dim
        assert entry.dim < 4 * entry.rank ** 2


def test_positive_root_counts():
    assert len(build_root_system(A1).positive_roots) == 1
    assert len(build_root_system(SimpleType.parse("G2")).positive_roots) == 6
    assert len(build_root_system(SimpleType.parse("D4")).positive_roots) == 12
    for t in admissible_types(8):
        rs = build_root_system(t)
        assert len(rs.positive_roots) == (t.dim - t.rank) // 2


def test_cartan_matrix_shape():
    for t in admissible_types(8):
        C = build_root_system(t).cartan
        for i, row in enumerate(C):
            assert row[i] == 2
            for j, x in enumerate(row):
                if i != j:
                    assert x in (0, -1, -2, -3)


def test_weyl_dim_examples():
    assert weyl_dim(A1, w((1,))) == 2
    assert weyl_dim(A1, w((0,))) == 1
    assert weyl_dim(SimpleType.parse("G2"), w((1, 0))) == 7
    rs = build_root_system(SimpleType.parse("E8"))
    assert rs.weyl_dim(rs.adjoint_weight) == 248
    # classical low-dimensional checks
    assert weyl_dim(SimpleType.parse("A2"), w((1, 0))) == 3
    assert weyl_dim(SimpleType.parse("A2"), w((1, 1))) == 8
    assert weyl_dim(SimpleType.parse("B2"), w((1, 0))) == 5
    assert weyl_dim(SimpleType.parse("B2"), w((0, 1))) == 4
    assert weyl_dim(SimpleType.parse("D4"), w((1, 0, 0, 0))) == 8


def test_weyl_adjoint_matches_catalog_rank8():
    for t in admissible_types(8):
        rs = build_root_system(t)
        assert rs.weyl_dim(rs.adjoint_weight) == t.dim, str(t)


def test_weyl_monotone_in_each_coordinate():
    for name in ("A2", "B3", "G2", "D4"):
        t = SimpleType.parse(name)
        rs = build_root_system(t)
        for base in ((0,) * t.rank, (1,) * t.rank, (2, 0) + (1,) * (t.rank - 2)):
            d0 = rs.weyl_dim(w(base))
            for i in range(t.rank):
                bumped = list(base)
                bumped[i] += 1
                assert rs.weyl_dim(w(tuple(bumped))) > d0


def test_central_characters_a1():
    chi = central_character(A1, w((1,)))
    assert chi((1,)) == Fraction(1, 2)
    assert not chi.is_trivial
    chi2 = central_character(A1, w((2,)))
    assert chi2((1,)) == 0 and chi2.is_trivial
    chi0 = central_character(SimpleType.parse("B3"), w((0, 0, 0)))
    assert chi0.is_trivial


def test_irrep_kernels():
    k = central_character(SimpleType.parse("A3"), w((0, 1, 0))).kernel()
    orders = [element_order(z, (4,)) for z in k]
    assert len(k) == 2 and abelian.invariants_from_orders(orders) == (2,)
    assert central_character(A1, w((1,))).kernel() == {(0,)}
    assert central_character(SimpleType.parse("B2"), w((0, 1))).kernel() == {(0,)}
    # adjoint kills the center
    assert central_character(A1, w((2,))).kernel() == {(0,), (1,)}


def test_character_pairing_injective_rank8():
    # distinct center elements are separated by some fundamental weight
    for t in admissible_types(8):
        rs = build_root_system(t)
        chars = [central_character(t, w(tuple(int(i == j) for j in range(t.rank))))
                 for i in range(t.rank)]
        seen = set()
        for z in elements_of(rs.center.factors):
            key = tuple(chi(z) for chi in chars)
            assert key not in seen, f"{t}: center not separated"
            seen.add(key)


def test_rho_and_determinant_cross_checks():
    for t in admissible_types(8):
        rs = build_root_system(t)
        # the positive roots sum to 2 rho, rho = (1, ..., 1) in fundamental
        # weights; simple root j has the weight coordinates of Cartan row j
        two_rho = [sum(root[j] * rs.cartan[j][i] for root in rs.positive_roots
                       for j in range(t.rank)) for i in range(t.rank)]
        assert two_rho == [2] * t.rank, t
        # det(Cartan) = center order, via the Smith diagonal kept on the system
        det = 1
        for d in rs._snf_diag:
            det *= d
        assert det == rs.center.order


def test_weight_parsing():
    assert DominantWeight.parse("[1,0,0]").coords == (1, 0, 0)
    assert DominantWeight.parse("[]").coords == ()
    with pytest.raises(ValueError):
        DominantWeight.parse("1,0")
    with pytest.raises(ValueError):
        DominantWeight((-1,))


def test_weights_up_to_reaches_budget_1024_in_order():
    rows = build_root_system(A1).weights_up_to(1024)
    assert [(coords, d) for coords, d, _ in rows] == [((d - 1,), d) for d in range(1, 1025)]
    a2 = build_root_system(SimpleType("A", 2)).weights_up_to(15)
    assert [(c, d) for c, d, _ in a2] == [((0, 0), 1), ((0, 1), 3), ((1, 0), 3),
                                          ((0, 2), 6), ((2, 0), 6), ((1, 1), 8),
                                          ((0, 3), 10), ((3, 0), 10), ((0, 4), 15),
                                          ((1, 2), 15), ((2, 1), 15), ((4, 0), 15)]
