import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

import jordanbounds
from jordanbounds.calculus import gl_jordan_bound, minkowski_bound
from jordanbounds.cli import main

from conftest import corpus_path

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
# The directory holding the package this suite imported, so that child
# processes run the code under test whatever their cwd or PYTHONPATH.
PACKAGE_PARENT = str(pathlib.Path(jordanbounds.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


BOUNDVALUE_SCHEMA = {
    "type": "object",
    "properties": {
        "infinite": {"type": "boolean"},
        "factors": {"type": ["array", "null"],
                    "items": {"type": "array", "items": {"type": "string"},
                              "minItems": 2, "maxItems": 2}},
        "log10": {"type": ["array", "null"],
                  "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "decimal": {"type": ["string", "null"]},
    },
    "required": ["infinite", "factors", "log10", "decimal"],
    "additionalProperties": False,
}

TRACE_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {"op": {"type": "string"}, "rule": {"type": "string"},
                       "statement": {"type": "string"},
                       "inputs": {"type": "array", "items": {"type": "string"}},
                       "output": {"type": "string"}},
        "required": ["op", "rule", "statement", "inputs", "output"],
        "additionalProperties": False,
    },
}

VALUE_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"},
                   "dim": {"type": "integer"}, "n": {"type": "integer"},
                   "value": {"type": "string"}},
    "required": ["command", "value"],
    "additionalProperties": False,
}

SBOUND_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"}, "dim": {"type": "integer"},
                   "value": BOUNDVALUE_SCHEMA},
    "required": ["command", "dim", "value"],
    "additionalProperties": False,
}

BOUND_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"}, "dim": {"type": "integer"},
                   "j": BOUNDVALUE_SCHEMA, "rkf": {"type": "string"},
                   "trace": TRACE_SCHEMA},
    "required": ["command", "dim", "j", "rkf"],
    "additionalProperties": False,
}

DSL_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"}, "expr": {"type": "string"},
                   "j": BOUNDVALUE_SCHEMA, "rkf": {"type": "string"},
                   "bd": {"type": "string"}, "trace": TRACE_SCHEMA},
    "required": ["command", "expr", "j", "rkf", "bd"],
    "additionalProperties": False,
}

CATALOG_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"}, "max_rank": {"type": "integer"},
                   "rows": {"type": "array", "items": {
                       "type": "object",
                       "properties": {"type": {"type": "string"},
                                      "dim": {"type": "integer"},
                                      "rank": {"type": "integer"},
                                      "center": {"type": "array",
                                                 "items": {"type": "string"}}},
                       "required": ["type", "dim", "rank", "center"],
                       "additionalProperties": False}}},
    "required": ["command", "max_rank", "rows"],
    "additionalProperties": False,
}

ENUMERATE_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"}, "dim": {"type": "integer"},
                   "classes": {"type": "array", "items": {
                       "type": "object",
                       "properties": {
                           "name": {"type": "string"},
                           "factors": {"type": "array", "items": {"type": "string"}},
                           "dim": {"type": "integer"},
                           "center": {"type": "array", "items": {"type": "string"}},
                           "kernel_generators": {"type": "array", "items": {
                               "type": "array", "items": {"type": "integer"}}},
                           "kernel_order": {"type": "string"},
                           "quotient_center": {"type": "array",
                                               "items": {"type": "string"}},
                           "min_faithful_dim": {"type": "string"}},
                       "required": ["name", "factors", "dim", "center",
                                    "kernel_generators", "kernel_order",
                                    "quotient_center", "min_faithful_dim"],
                       "additionalProperties": False}}},
    "required": ["command", "dim", "classes"],
    "additionalProperties": False,
}

FINITE_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"}, "file": {"type": "string"},
                   "degree": {"type": "integer"}, "order": {"type": "string"},
                   "value": {"type": "string"},
                   "invariant_factors": {"type": "array", "items": {"type": "string"}}},
    "required": ["command", "file", "degree", "order", "value"],
    "additionalProperties": False,
}

VERIFY_SCHEMA = {
    "type": "object",
    "properties": {"command": {"type": "string"}, "file": {"type": "string"},
                   "degree": {"type": "integer"}, "order": {"type": "string"},
                   "context": {"type": "string"},
                   "jordan_index": {"type": "string"},
                   "jordan_constant": {"type": ["string", "null"]},
                   "bound": BOUNDVALUE_SCHEMA, "pass": {"type": "boolean"}},
    "required": ["command", "file", "order", "context", "jordan_index",
                 "jordan_constant", "bound", "pass"],
    "additionalProperties": False,
}


def test_cnbound(capsys):
    code, out, _ = run_cli(capsys, "cnbound", "--n", "2")
    assert code == 0 and out.strip() == "390624"
    code, out, _ = run_cli(capsys, "--json", "cnbound", "--n", "2")
    data = json.loads(out)
    jsonschema.validate(data, VALUE_SCHEMA)
    assert data["value"] == "390624"


def test_minkowski(capsys):
    code, out, _ = run_cli(capsys, "minkowski", "--n", "4")
    assert code == 0 and out.strip() == "5760"


def test_big_cnbound_and_minkowski_print_exact_values(capsys, int_str_limit):
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    outputs = []
    for argv in (["cnbound", "--n", "41"], ["minkowski", "--n", "1332"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        outputs.append(out)
    sys.set_int_max_str_digits(0)
    assert outputs == [f"{gl_jordan_bound(41)}\n", f"{minkowski_bound(1332)}\n"]


def test_nfun(capsys):
    code, out, _ = run_cli(capsys, "nfun", "--dim", "8")
    assert code == 0 and out.strip() == "8"
    code, out, _ = run_cli(capsys, "nfun", "--dim", "8", "--json")
    jsonschema.validate(json.loads(out), VALUE_SCHEMA)


def test_bound_connected(capsys):
    code, out, _ = run_cli(capsys, "bound", "connected", "--dim", "1")
    assert code == 0 and out.splitlines()[0] == "J <= 1"
    code, out, _ = run_cli(capsys, "--json", "bound", "connected", "--dim", "2")
    data = json.loads(out)
    jsonschema.validate(data, BOUND_SCHEMA)
    assert data["j"]["decimal"] == str(4 ** 24)
    assert data["rkf"] == "6"


def test_text_and_json_agree(capsys):
    _, text, _ = run_cli(capsys, "cnbound", "--n", "3")
    _, js, _ = run_cli(capsys, "--json", "cnbound", "--n", "3")
    assert text.strip() == json.loads(js)["value"]
    _, text, _ = run_cli(capsys, "bound", "connected", "--dim", "2")
    _, js, _ = run_cli(capsys, "--json", "bound", "connected", "--dim", "2")
    assert text.splitlines()[0].removeprefix("J <= ") == json.loads(js)["j"]["decimal"]


def test_bound_aut0_and_bir_identical(capsys):
    for n in ("1", "2"):
        _, out_a, _ = run_cli(capsys, "--json", "bound", "aut0", "--dim", n)
        _, out_b, _ = run_cli(capsys, "--json", "bound", "bir", "--dim", n)
        da, db = json.loads(out_a), json.loads(out_b)
        jsonschema.validate(da, BOUND_SCHEMA)
        assert da["j"] == db["j"] and da["rkf"] == db["rkf"]


def test_bound_with_trace(capsys):
    code, out, _ = run_cli(capsys, "--json", "--trace", "bound", "connected", "--dim", "2")
    data = json.loads(out)
    jsonschema.validate(data, BOUND_SCHEMA)
    assert len(data["trace"]) >= 4
    code, out, _ = run_cli(capsys, "--trace", "bound", "connected", "--dim", "2")
    assert "trace:" in out


def test_sbound(capsys):
    code, out, _ = run_cli(capsys, "--json", "sbound", "--dim", "3")
    data = json.loads(out)
    jsonschema.validate(data, SBOUND_SCHEMA)
    assert data["value"]["decimal"] == "74814184347878"
    code, out, _ = run_cli(capsys, "sbound", "--dim", "2")
    assert out.strip() == "1"


def test_catalog(capsys):
    code, out, _ = run_cli(capsys, "--json", "catalog", "--max-rank", "8")
    data = json.loads(out)
    jsonschema.validate(data, CATALOG_SCHEMA)
    rows = {r["type"]: r for r in data["rows"]}
    assert rows["E8"]["dim"] == 248
    assert rows["A3"]["center"] == ["4"]
    assert rows["D4"]["center"] == ["2", "2"]
    assert len(data["rows"]) == 8 + 7 + 6 + 5 + 3 + 1 + 1  # A..D chains, E, F, G


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "--json", "enumerate", "--dim", "8")
    data = json.loads(out)
    jsonschema.validate(data, ENUMERATE_SCHEMA)
    names = [c["name"] for c in data["classes"]]
    assert names[0] == "1" and "A2/adj" in names
    code, out, _ = run_cli(capsys, "enumerate", "--dim", "3")
    assert "A1/adj" in out


def test_bound_dsl(capsys):
    code, out, _ = run_cli(capsys, "--json", "bound", "dsl", "--expr",
                           "product(finite(6), abelian_variety(1))")
    data = json.loads(out)
    jsonschema.validate(data, DSL_SCHEMA)
    assert data["j"]["decimal"] == "6" and data["rkf"] == "4" and data["bd"] == "inf"


def test_bound_dsl_file(capsys, tmp_path):
    f = tmp_path / "expr.dsl"
    f.write_text("# a structured description\nextension(unipotent(3), torus(2))\n")
    code, out, _ = run_cli(capsys, "--json", "bound", "dsl", "--file", str(f))
    data = json.loads(out)
    assert data["j"]["decimal"] == "1" and data["rkf"] == "2"


def test_finite_verbs(capsys):
    code, out, _ = run_cli(capsys, "finite", "index", "--file", corpus_path("a5.grp"))
    assert code == 0 and out.strip() == "12"
    code, out, _ = run_cli(capsys, "--json", "finite", "constant", "--file",
                           corpus_path("s4.grp"))
    data = json.loads(out)
    jsonschema.validate(data, FINITE_SCHEMA)
    assert data["value"] == "6"
    code, out, _ = run_cli(capsys, "--json", "finite", "rkf", "--file",
                           corpus_path("z2z4z3.grp"))
    data = json.loads(out)
    jsonschema.validate(data, FINITE_SCHEMA)
    assert data["value"] == "2" and data["invariant_factors"] == ["2", "12"]


def test_finite_verify(capsys):
    code, out, _ = run_cli(capsys, "--json", "finite", "verify",
                           "--file", corpus_path("sl25.grp"),
                           "--context", "gl_dim:2")
    data = json.loads(out)
    jsonschema.validate(data, VERIFY_SCHEMA)
    assert data["pass"] is True
    assert data["jordan_index"] == "12"
    assert data["bound"]["decimal"] == "390624"
    code, out, _ = run_cli(capsys, "finite", "verify", "--file", corpus_path("a5.grp"),
                           "--context", "gl_dim:3")
    assert code == 0 and out.splitlines()[-1] == "PASS"


def test_error_paths(capsys):
    code, _, err = run_cli(capsys, "bound", "dsl", "--expr", "torus(")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "finite", "index", "--file", "no-such-file.grp")
    assert code == 1
    code, _, err = run_cli(capsys, "nfun", "--dim", "100")
    assert code == 3 and "cap" in err
    with pytest.raises(SystemExit) as exc:
        main(["unknownverb"])
    assert exc.value.code == 2


def test_caps_override(capsys, tmp_path):
    f = tmp_path / "caps.json"
    f.write_text(json.dumps({"enumeration_dim": 4}))
    code, _, err = run_cli(capsys, "--caps", str(f), "nfun", "--dim", "8")
    assert code == 3
    f.write_text(json.dumps({"no_such_cap": 1}))
    code, _, err = run_cli(capsys, "--caps", str(f), "nfun", "--dim", "8")
    assert code == 1 and "unknown cap" in err


def _run_fresh(cmd):
    """Run ``cmd`` in a fresh interpreter that imports this suite's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_PARENT, env.get("PYTHONPATH")) if p)
    return subprocess.run(cmd, capture_output=True, cwd=REPO_ROOT, env=env)


def test_repeat_runs_bit_identical():
    cmd = [sys.executable, "-m", "jordanbounds", "--json", "enumerate", "--dim", "6"]
    a = _run_fresh(cmd)
    b = _run_fresh(cmd)
    assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
    assert a.stdout == b.stdout
    cmd = [sys.executable, "-m", "jordanbounds", "--trace", "bound", "aut0", "--dim", "1"]
    a = _run_fresh(cmd)
    b = _run_fresh(cmd)
    assert a.returncode == b.returncode == 0, (a.stderr, b.stderr)
    assert a.stdout == b.stdout
