"""The benchmark's cap-breach operations must stay breaches.

bench/workloads.py runs E(15..18) queries under CAP_BREACH_CAPS and checks
that each one exits with a cap error; an engine change that lets one of them
complete (or moves the breach elsewhere) fails here, not only in a benchmark
run.  The file is read, not imported or changed.
"""

import ast
import pathlib

import pytest

from jordanbounds import abelian, enumeration
from jordanbounds.caps import CapExceeded, Caps
from jordanbounds.enumeration import class_table, embedding_dim

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _breach_caps() -> Caps:
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "CAP_BREACH_CAPS" for t in node.targets):
            return Caps(**ast.literal_eval(node.value))
    raise AssertionError("bench/workloads.py defines no CAP_BREACH_CAPS")


@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_breach_inputs_stay_breaches(n):
    caps = _breach_caps()
    with pytest.raises(CapExceeded):
        embedding_dim(n, caps)
    with pytest.raises(CapExceeded):
        class_table(n, caps)


@pytest.mark.parametrize("n", [15, 16, 17, 18])
def test_breaches_trip_before_any_search(monkeypatch, n):
    """Every form's center is walked before any summand pool is built, and
    the breach is the one the Z2^5 walk of A1^5 (dimension 15) meets."""
    def no_search(base):
        raise AssertionError(f"summand pool built for {base}")

    monkeypatch.setattr(enumeration, "_summand_pool", no_search)
    # tables cached by earlier tests would skip the search without a pre-flight
    monkeypatch.setattr(enumeration, "_faithful_dims", enumeration._faithful_dims.__wrapped__)
    caps = _breach_caps()
    with pytest.raises(CapExceeded) as walk:
        abelian.all_subgroups((2,) * 5, caps)
    for call in (embedding_dim, class_table):
        with pytest.raises(CapExceeded) as err:
            call(n, caps)
        assert str(err.value) == str(walk.value)
