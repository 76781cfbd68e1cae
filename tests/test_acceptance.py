"""Acceptance checks: one test per criterion, each printing a PASS/FAIL line
and enforcing its wall-clock budget.

Two reference values are pinned in criteria 5 and 8 that the exhaustive
enumeration contradicts (see README, "Known discrepancies"); they are kept
asserting the pinned numbers in their own test functions, which therefore
fail, rather than being silently adjusted to whatever the code computes.
"""

import json
import random
import time
from contextlib import contextmanager

from jordanbounds import calculus as calc
from jordanbounds import dsl
from jordanbounds import permgroups as pg
from jordanbounds.abelian import FiniteAbelianGroup
from jordanbounds.boundvalue import BoundValue, ONE as BV_ONE
from jordanbounds.calculus import (BoundTriple, combine_extension, gl_jordan_bound,
                                   leaf_triple, minkowski_bound,
                                   semisimple_jordan_bound)
from jordanbounds.cli import main as cli_main
from jordanbounds.enumeration import (embedding_dim, enumerate_semisimple,
                                      isogeny_classes, max_center_order,
                                      min_faithful_dim)
from jordanbounds.extnat import INF, ExtNat
from jordanbounds.rootsystems import (SimpleType, admissible_types,
                                      build_root_system, catalog_entry)

from oracles import commuting_closure_max_abelian, exhaustive_min_faithful


@contextmanager
def criterion(num: str, label: str, seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {num} took {elapsed:.1f}s, budget {seconds}s"
    print(f"[acceptance] criterion {num} ({label}): PASS ({elapsed:.2f}s)")


# the full classification table for ranks up to 8, written out independently
CATALOG_RANK8 = {
    "A1": (3, 1, (2,)), "A2": (8, 2, (3,)), "A3": (15, 3, (4,)), "A4": (24, 4, (5,)),
    "A5": (35, 5, (6,)), "A6": (48, 6, (7,)), "A7": (63, 7, (8,)), "A8": (80, 8, (9,)),
    "B2": (10, 2, (2,)), "B3": (21, 3, (2,)), "B4": (36, 4, (2,)), "B5": (55, 5, (2,)),
    "B6": (78, 6, (2,)), "B7": (105, 7, (2,)), "B8": (136, 8, (2,)),
    "C3": (21, 3, (2,)), "C4": (36, 4, (2,)), "C5": (55, 5, (2,)),
    "C6": (78, 6, (2,)), "C7": (105, 7, (2,)), "C8": (136, 8, (2,)),
    "D4": (28, 4, (2, 2)), "D5": (45, 5, (4,)), "D6": (66, 6, (2, 2)),
    "D7": (91, 7, (4,)), "D8": (120, 8, (2, 2)),
    "E6": (78, 6, (3,)), "E7": (133, 7, (2,)), "E8": (248, 8, ()),
    "F4": (52, 4, ()), "G2": (14, 2, ()),
}


def test_criterion_01_catalog_fidelity():
    with criterion("1", "catalog fidelity, rank <= 8", 1.0):
        types = admissible_types(8)
        assert {str(t) for t in types} == set(CATALOG_RANK8)
        for t in types:
            dim, rank, center = CATALOG_RANK8[str(t)]
            assert catalog_entry(t) == (dim, rank, FiniteAbelianGroup(center)), str(t)


def test_criterion_02_simple_type_inequalities():
    with criterion("2", "center/rank/dimension inequalities, rank <= 50", 1.0):
        for t in admissible_types(50):
            entry = catalog_entry(t)
            assert entry.center.order <= entry.rank + 1 < entry.dim < 4 * entry.rank ** 2


def test_criterion_03_weyl_cross_check():
    with criterion("3", "adjoint Weyl dimension matches the table, rank <= 8", 5.0):
        for t in admissible_types(8):
            rs = build_root_system(t)
            assert rs.weyl_dim(rs.adjoint_weight) == t.dim, str(t)
        e8 = build_root_system(SimpleType("E", 8))
        assert e8.weyl_dim(e8.adjoint_weight) == 248


def test_criterion_04_center_order_bound():
    with criterion("4", "center order at most n^n for n <= 12", 10.0):
        for n in range(1, 13):
            assert max_center_order(n) <= n ** n, n


def test_criterion_05_embedding_dims_with_oracle():
    with criterion("5", "embedding dimensions 0..8 with exhaustive oracle", 60.0):
        assert [embedding_dim(n) for n in range(9)] == [0, 0, 0, 3, 3, 3, 6, 6, 8]
        for base in enumerate_semisimple(10):
            if base.is_trivial:
                continue
            for cls in isogeny_classes(base):
                answer = min_faithful_dim(cls)
                assert exhaustive_min_faithful(cls, 2 * answer) == answer, cls.name()


def test_criterion_05_reference_value_dim16():
    # Pinned reference value.  The enumeration yields 32 at dimension 16
    # (already at 15: five SL2 factors modulo the even-coordinate-sum central
    # subgroup admit nothing faithful below the all-odd tensor summand of
    # dimension 2^5).  Kept asserting the pinned number; see README.
    with criterion("5b", "pinned embedding dimension at 16", 60.0):
        assert embedding_dim(16) == 15


def test_criterion_06_constants():
    with criterion("6", "general linear and Minkowski constants", 1.0):
        assert gl_jordan_bound(1) == 14
        assert gl_jordan_bound(2) == 390624
        assert [minkowski_bound(n) for n in (1, 2, 3, 4)] == [2, 24, 48, 5760]


def test_criterion_07_connected_closed_form_vs_pipeline():
    with criterion("7", "connected bound: closed form equals step pipeline, n <= 6", 5.0):
        for n in range(7):
            closed, _ = calc.connected_jordan_bound(n)
            index = semisimple_jordan_bound(n)
            commutator = leaf_triple("finite", n ** n if n else 1)
            rank = calc.rank_bound_mod_commutator(n, n)
            combined, _ = combine_extension(commutator, BoundTriple(BV_ONE, rank, INF))
            assert closed == index * combined.j, n
        assert calc.connected_jordan_bound(2)[0] == BoundValue.from_int(4).pow(24)


def test_criterion_08_aut0_and_bir(capsys):
    with criterion("8", "variety automorphism bounds and birational match", 60.0):
        v1, _ = calc.aut0_jordan_bound(1)
        assert v1 == BoundValue.from_int(gl_jordan_bound(3)) * BoundValue.from_int(256).pow(2816)
        assert calc.aut0_rank_bound(1) == ExtNat(11)
        for dim in ("1", "2"):
            assert cli_main(["--json", "bound", "aut0", "--dim", dim]) == 0
            aut0_out = capsys.readouterr().out
            assert cli_main(["--json", "bound", "bir", "--dim", dim]) == 0
            bir_out = capsys.readouterr().out
            da, db = json.loads(aut0_out), json.loads(bir_out)
            assert da["j"] == db["j"] and da["rkf"] == db["rkf"]


def test_criterion_08_reference_rank_value_dim2():
    # Pinned reference value tied to embedding dimension 15 at total
    # dimension 16; the enumeration gives 32 there, so the rank bound is
    # 8 + 16 + 32 = 56.  Kept asserting the pinned number; see README.
    with criterion("8b", "pinned variety rank bound at dimension 2", 60.0):
        assert calc.aut0_rank_bound(2) == ExtNat(39)


def test_criterion_09_finite_oracle(corpus_groups):
    with criterion("9", "finite-group oracle and verification", 120.0):
        assert pg.jordan_index(corpus_groups["a5"]) == 12
        assert pg.jordan_index(corpus_groups["s4"]) == 6
        assert pg.jordan_index(corpus_groups["q8"]) == 2
        assert pg.jordan_constant(corpus_groups["a5"]) == 12
        assert pg.jordan_constant(corpus_groups["s4"]) == 6
        for name, group in sorted(corpus_groups.items()):
            if group.order <= 200:
                assert pg.max_abelian_order(group) == \
                    commuting_closure_max_abelian(group), name
        report = pg.verify_bound(corpus_groups["sl25"], "gl_dim:2")
        assert report.passed
        assert report.jordan_index == 12
        assert report.bound.to_int() == 390624


def test_criterion_10_dsl(capsys):
    with criterion("10", "DSL round-trips, evaluation and trace replay", 30.0):
        from test_dsl import _random_expr
        rng = random.Random(271828)
        for _ in range(1000):
            e = _random_expr(rng, 3)
            assert dsl.parse(dsl.print_expr(e)) == e
        for d in range(11):
            for r in range(11):
                triple, trace = dsl.evaluate(
                    dsl.Extension(dsl.Leaf("unipotent", d), dsl.Leaf("torus", r)))
                assert triple.j == BV_ONE and triple.rkf == ExtNat(r)
                assert not triple.bd.is_finite
                assert trace.replay() == triple
        rng = random.Random(31415)
        for _ in range(25):
            e = _random_expr(rng, 2, evaluable=True)
            triple, trace = dsl.evaluate(e)
            assert trace.replay() == triple
