"""The finite-group oracle values the benchmark checks against must hold.

bench/workloads.py names the 40 groups of the finite_oracle workload (the
corpus and the products of PRODUCT_PAIRS) and the queries run on each;
bench/oracle_values.json records the Jordan index, the Jordan constant and
the verdict of every verification context.  A change to permgroups that
moves one of them fails here, not only in a benchmark run.  Both files are
read, not changed; workloads.py imports nothing from the package.
"""

import json
import pathlib
import runpy

import pytest

from jordanbounds import permgroups

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))
RECORDED = json.loads((BENCH / "oracle_values.json").read_text(encoding="utf-8"))
KEYS = list(WORKLOADS["CORPUS"]) + ["*".join(pair) for pair in WORKLOADS["PRODUCT_PAIRS"]]


def test_every_recorded_group_is_a_workload_group():
    assert len(KEYS) == 40
    assert sorted(KEYS) == sorted(RECORDED)


@pytest.mark.parametrize("key", KEYS)
def test_recorded_oracle_values_hold(key, corpus_groups):
    factors = [corpus_groups[name] for name in key.split("*")]
    group = factors[0] if len(factors) == 1 else permgroups.direct_product(*factors)
    want = RECORDED[key]
    assert (group.degree, group.order) == (want["degree"], want["order"])
    assert permgroups.jordan_index(group) == want["jordan_index"]
    assert permgroups.jordan_constant(group) == want["jordan_constant"]
    contexts = [context for query, context in WORKLOADS["oracle_queries"](group.degree)
                if query == "verify"]
    assert sorted(contexts) == sorted(want["verify"])
    for context in contexts:
        report = permgroups.verify_bound(group, context)
        assert report.passed is want["verify"][context], context
        assert (report.jordan_index, report.jordan_constant) == (
            want["jordan_index"], want["jordan_constant"])
