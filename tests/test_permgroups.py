import pytest

from jordanbounds import permgroups as pg
from jordanbounds.caps import CapExceeded, Caps
from jordanbounds.permgroups import Permutation, closure

from oracles import (commuting_closure_max_abelian, reference_jordan_constant,
                     reference_subgroups)


def P(text, degree):
    return Permutation.from_cycles(text, degree)


def test_permutation_basics():
    p = P("(1 2 3)", 5)
    assert p.images == (1, 2, 0, 3, 4)
    assert p.order() == 3
    assert P("(1 2)(3 4 5)", 5).order() == 6
    assert Permutation.identity(4).order() == 1
    assert p * p == P("(1 3 2)", 5) and p * p * p == Permutation.identity(5)
    assert str(P("(1 2)(3 4)", 4)) == "(1 2)(3 4)"
    assert str(Permutation.identity(3)) == "()"
    q = Permutation.from_cycles("(1 2)(3 4)", 4)
    assert q * q == Permutation.identity(4)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 9)", 4)
    with pytest.raises(ValueError):
        Permutation.from_cycles("(1 1)", 4)


def test_cycle_round_trip():
    for text, degree in [("(1 2 3 4 5)", 5), ("(1 3)(2 4)", 4), ("()", 3),
                         ("(2 5)(3 7 4)", 8)]:
        p = P(text, degree)
        assert Permutation.from_cycles(str(p), degree) == p


def test_closure_orders():
    s3 = closure([P("(1 2)", 3), P("(1 2 3)", 3)])
    assert s3.order == 6
    a5 = closure([P("(1 2 3 4 5)", 5), P("(1 2 3)", 5)])
    assert a5.order == 60
    klein = closure([P("(1 2)(3 4)", 4), P("(1 3)(2 4)", 4)])
    assert klein.order == 4
    assert closure([], degree=4).order == 1


def test_closure_cap_carries_lower_bound():
    with pytest.raises(CapExceeded) as err:
        closure([P("(1 2 3 4 5)", 5), P("(1 2 3)", 5)], caps=Caps(closure_order=10))
    assert err.value.observed > 10


def test_max_abelian_orders(corpus_groups):
    assert pg.max_abelian_order(corpus_groups["a5"]) == 5
    assert pg.max_abelian_order(corpus_groups["s4"]) == 4
    assert pg.max_abelian_order(corpus_groups["q8"]) == 4
    assert pg.max_abelian_order(corpus_groups["sl25"]) == 10
    for name in ("z6", "klein", "z2z4z3"):
        g = corpus_groups[name]
        assert pg.max_abelian_order(g) == g.order  # abelian: the whole group


def test_max_abelian_matches_commuting_closure_oracle(corpus_groups):
    for name, group in sorted(corpus_groups.items()):
        if group.order <= 200:
            assert pg.max_abelian_order(group) == commuting_closure_max_abelian(group), name


def test_jordan_index(corpus_groups):
    assert pg.jordan_index(corpus_groups["a5"]) == 12
    assert pg.jordan_index(corpus_groups["s4"]) == 6
    assert pg.jordan_index(corpus_groups["q8"]) == 2
    assert pg.jordan_index(corpus_groups["z6"]) == 1
    assert pg.jordan_index(corpus_groups["trivial"]) == 1
    assert pg.jordan_index(corpus_groups["sl25"]) == 12


def test_jordan_constant(corpus_groups):
    assert pg.jordan_constant(corpus_groups["a5"]) == 12
    assert pg.jordan_constant(corpus_groups["s4"]) == 6
    assert pg.jordan_constant(corpus_groups["z6"]) == 1
    assert pg.jordan_constant(corpus_groups["q8"]) == 2
    assert pg.jordan_constant(corpus_groups["d8"]) == 2


def test_jordan_constant_past_order_2000_is_the_index(corpus_groups):
    group = pg.direct_product(corpus_groups["s5"], corpus_groups["s4"])
    assert group.order == 2880
    assert pg.jordan_constant(group) == pg.jordan_index(group) == 120


def test_jordan_constant_dominates_subgroup_indexes(corpus_groups):
    groups = {name: g for name, g in corpus_groups.items() if g.order <= 24}
    groups["d8 x z2"] = pg.direct_product(corpus_groups["d8"], corpus_groups["z2"])
    for name, group in sorted(groups.items()):
        constant = pg.jordan_constant(group)
        assert constant >= pg.jordan_index(group), name
        for subgroup in reference_subgroups(group):
            assert pg.jordan_index(subgroup) <= constant, name
        assert constant == reference_jordan_constant(group), name


def test_jordan_constant_submultiplicative(corpus_groups):
    pairs = [("s3", "s3"), ("s3", "q8"), ("a4", "z6"), ("d8", "d10"), ("s4", "s3")]
    for a, b in pairs:
        ga, gb = corpus_groups[a], corpus_groups[b]
        prod = pg.direct_product(ga, gb)
        assert pg.jordan_constant(prod) <= pg.jordan_constant(ga) * pg.jordan_constant(gb)


def test_abelian_rank(corpus_groups):
    # the rank, the least number of generators, is the number of invariants
    assert pg.abelian_invariants(corpus_groups["z6"]) == (6,)
    assert pg.abelian_invariants(corpus_groups["klein"]) == (2, 2)
    assert pg.abelian_invariants(corpus_groups["z2z4z3"]) == (2, 12)
    with pytest.raises(ValueError):
        pg.abelian_invariants(corpus_groups["s3"])


def test_abelian_rank_subadditive(corpus_groups):
    pairs = [("z6", "klein"), ("z2", "z2z4z3"), ("z4", "z5")]
    for a, b in pairs:
        ga, gb = corpus_groups[a], corpus_groups[b]
        prod = pg.direct_product(ga, gb)
        rank = len(pg.abelian_invariants(prod))
        assert rank <= len(pg.abelian_invariants(ga)) + len(pg.abelian_invariants(gb))


def test_verify_bound(corpus_groups):
    report = pg.verify_bound(corpus_groups["sl25"], "gl_dim:2")
    assert report.passed
    assert report.jordan_index == 12
    assert report.bound.to_int() == 390624
    report = pg.verify_bound(corpus_groups["a5"], "gl_dim:3")
    assert report.passed
    report = pg.verify_bound(corpus_groups["trivial"], "connected_dim:1")
    assert report.passed and report.jordan_index == 1
    with pytest.raises(ValueError):
        pg.verify_bound(corpus_groups["a5"], "nonsense:3")


def test_verify_bound_can_fail():
    # an artificial context too small for the group: dimension 0 gives bound 1
    big = closure([P("(1 2 3 4 5)", 5), P("(1 2 3)", 5)])
    report = pg.verify_bound(big, "gl_dim:0")
    assert not report.passed


def test_group_file_parsing(tmp_path):
    good = tmp_path / "g.grp"
    good.write_text("# comment\ndegree 4\n(1 2 3 4)\n(1 3)  # reflection\n")
    g = pg.load_group(str(good))
    assert g.order == 8
    bad = tmp_path / "bad.grp"
    bad.write_text("(1 2)\n")
    with pytest.raises(ValueError):
        pg.load_group(str(bad))
    nohdr = tmp_path / "empty.grp"
    nohdr.write_text("# nothing\n")
    with pytest.raises(ValueError):
        pg.load_group(str(nohdr))


def test_direct_product(corpus_groups):
    prod = pg.direct_product(corpus_groups["s3"], corpus_groups["z2"])
    assert prod.order == 12
    assert prod.degree == 5
    assert pg.jordan_index(prod) == pg.jordan_index(corpus_groups["s3"])


def test_equal_element_sets_share_one_table(corpus_groups):
    group = corpus_groups["s4"]
    regenerated = closure([Permutation(im) for im in sorted(group.elements)],
                          degree=group.degree)
    assert regenerated.generators != group.generators
    assert pg._table_for(regenerated) is pg._table_for(group)


def test_max_abelian_order_memo_lives_on_the_table(corpus_groups, monkeypatch):
    group = corpus_groups["s4"]
    table = pg._table_for(group)
    best = pg.max_abelian_order(group)
    assert table.abelian_memo[(1 << group.order) - 1] == best
    # a repeated query is answered by the memo before any element is scanned
    scans = []
    monkeypatch.setattr(pg, "_bits", lambda mask: scans.append(mask) or iter(()))
    assert pg.max_abelian_order(group) == best
    assert scans == []
