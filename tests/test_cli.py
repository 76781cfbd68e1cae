import ast
import hashlib
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import jsonschema
import pytest

import jordanbounds
from jordanbounds.boundvalue import decimal
from jordanbounds.calculus import gl_jordan_bound, minkowski_bound
from jordanbounds.caps import Caps
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
                   "jordan_constant": {"type": "string"},
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


# sha256 of stdout, recorded before the GL floor and the large decimals
# were computed without quadratic steps (the connected(5) lines before large
# values were expanded as libmpdec powers, the aut0 and verify lines before
# log10 enclosures were summed from integer bounds, the enumerate and catalog
# rows before center subgroups were kept as bare element sets); the bytes
# must not move
PINNED_STDOUT_SHA256 = [
    (["cnbound", "--n", "200"],
     "8bc334b52da695fb5e33443544ff4d6f3b90346cddc1eb4097cb8e6d3ea95c3c"),
    (["--json", "cnbound", "--n", "256"],
     "95a3ab65f451557209c9554a0309000afeeb2702602769c6179484aac7e4b7b5"),
    (["--json", "bound", "dsl", "--expr", "product(connected(5), torus(3))"],
     "8da8b32654821af0ddb5e1c72d37eeaf9766d9994a8d8f159fed3e4009f2c642"),
    (["bound", "connected", "--dim", "5"],
     "c1a77423f4f969f968a312fef8012e1483e402f9b910d335e2f7b1ddde862a94"),
    (["--json", "bound", "connected", "--dim", "5"],
     "afadc2a91055d1641583b51a90c4d17b45c47e56aa201818e750e09d15070e4e"),
    (["--json", "--trace", "bound", "aut0", "--dim", "1"],
     "c7b1ffe48dfcd5b036c1710ec7598e409c961df3c1204fdc117a3ad04ef7b94e"),
    (["--json", "bound", "aut0", "--dim", "2"],
     "b1d3d58a32f413aabdb47e864d1063b7a3c4c12ac354061fadff001e2719774d"),
    (["bound", "aut0", "--dim", "2"],
     "37688ed086bb7b4c37cd70e5a39b2f920d1d0ff6a0dc50d7d95a94fe25f387e2"),
    (["--json", "finite", "verify", "--file", "corpus/s5.grp", "--context", "connected_dim:4"],
     "61ed5e84fd243cbc6532975f881c21b404e48c587c2afb3b0351aeb5f793bb7f"),
    (["--json", "enumerate", "--dim", "17"],
     "a9e22d70128481ac98fec202f522c5b6c20afc1d76cbb97b6d48e1c04a60013c"),
    (["--json", "enumerate", "--dim", "18"],
     "165617d94277f66f68d2a77ea6dc0df8a45209eeb8c4a5b05bc5566d53ddc098"),
    (["--json", "catalog", "--max-rank", "12"],
     "e23f8c75596e10e695049a0bb88cb12d039bbf7c177556d9534833bed73080c2"),
]


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT_SHA256,
                         ids=[" ".join(argv) for argv, _ in PINNED_STDOUT_SHA256])
def test_big_exact_outputs_are_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.chdir(REPO_ROOT)  # the verify line names its file as given
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_finite_constant_past_order_2000(capsys, tmp_path):
    f = tmp_path / "s5xs4.grp"
    f.write_text("degree 9\n(1 2 3 4 5)\n(1 2)\n(6 7 8 9)\n(6 7)\n")
    code, out, err = run_cli(capsys, "finite", "constant", "--file", str(f))
    assert (code, out, err) == (0, "120\n", "")
    code, out, err = run_cli(capsys, "finite", "verify", "--file", str(f),
                             "--context", "gl_dim:3")
    assert code == 0 and err == ""
    assert out.splitlines()[:3] == ["group order 2880", "jordan index 120",
                                    "jordan constant 120"]


def test_text_verify_expands_the_bound_up_to_the_digit_cap(capsys, tmp_path):
    argv = ("finite", "verify", "--file", corpus_path("z2.grp"), "--context", "gl_dim:64")
    code, out, _ = run_cli(capsys, *argv)
    expected = decimal(gl_jordan_bound(64))
    assert len(expected) > 10_000
    assert code == 0 and f"bound {expected}" in out.splitlines()
    code, out, _ = run_cli(capsys, "--json", *argv)
    assert json.loads(out)["bound"]["decimal"] == expected
    f = tmp_path / "caps.json"
    f.write_text(json.dumps({"decimal_digits": 100}))
    code, out, _ = run_cli(capsys, "--caps", str(f), *argv)
    bound = next(line for line in out.splitlines() if line.startswith("bound "))
    assert code == 0 and bound == f"bound {expected} (~10^[11251, 11251])"


def test_bound_dsl_prints_an_order_bound_past_the_str_digit_limit(
        capsys, tmp_path, int_str_limit):
    f = tmp_path / "caps.json"
    f.write_text(json.dumps({"decimal_digits": 100}))
    argv = ("--caps", str(f), "bound", "dsl", "--expr", "product(gl_q(1200), gl_q(1200))")
    bd = decimal(minkowski_bound(1200) ** 2)
    assert len(bd) == 7660
    sys.set_int_max_str_digits(4300)  # the interpreter's default limit
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and f"Bd <= {bd}" in out.splitlines(), err
    sys.set_int_max_str_digits(4300)
    code, out, err = run_cli(capsys, "--json", *argv)
    assert code == 0 and json.loads(out)["bd"] == bd, err


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
    # the Jordan constant is the index, so no cap is left on it
    f.write_text(json.dumps({"constant_group_order": 5000}))
    code, out, err = run_cli(capsys, "--caps", str(f), "finite", "constant",
                             "--file", corpus_path("a5.grp"))
    assert code == 1 and out == ""
    assert "unknown cap names" in err and "constant_group_order" in err


def test_caps_file_naming_the_retired_search_cap_is_rejected(capsys, tmp_path):
    # the faithful search runs over a finite state space, so no cap is left on it
    f = tmp_path / "caps.json"
    f.write_text(json.dumps({"search_dim": 1024}))
    code, out, err = run_cli(capsys, "--caps", str(f), "nfun", "--dim", "8")
    assert code == 1 and out == ""
    assert err == f"error: unknown cap names in {f}: ['search_dim']\n"


def test_exact_search_group_order_limit(capsys, tmp_path):
    f = tmp_path / "s7.grp"
    f.write_text("# symmetric group on 7 points\ndegree 7\n(1 2 3 4 5 6 7)\n(1 2)\n")
    code, out, err = run_cli(capsys, "finite", "index", "--file", str(f))
    assert code == 3 and out == ""
    assert ("exact-search group order (limit 4096, reached at least 5040)") in err


def test_readme_caps_table_matches_caps_fields():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Resource caps", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows[cells[0].strip("`")] = int(cells[1])
    assert rows == Caps._field_defaults


def test_readme_layout_lists_every_module():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Layout", 1)[1].split("```", 2)[1]
    listed = {line.split()[0] for line in block.splitlines()
              if line.startswith("  ") and line.split()[0].endswith(".py")}
    package = pathlib.Path(jordanbounds.__file__).parent
    modules = {p.name for p in package.glob("*.py") if not p.name.startswith("__")}
    assert listed == modules


def test_readme_breach_examples_are_what_the_cli_prints(capsys, tmp_path):
    text = " ".join((REPO_ROOT / "README.md").read_text(encoding="utf-8").split())
    quoted = re.findall(r"`(error: cap exceeded in abelian: [^`]*)`", text)
    printed = []
    for caps, argv in (({"subgroup_count": 1000}, ("nfun", "--dim", "15")),
                       ({"center_order": 4}, ("nfun", "--dim", "9"))):
        path = tmp_path / "caps.json"
        path.write_text(json.dumps(caps), encoding="utf-8")
        code, out, err = run_cli(capsys, "--caps", str(path), *argv)
        assert (code, out) == (3, "")
        printed.append(err.rstrip("\n"))
    assert printed == quoted


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
             for d in declared}
    imported = set()
    for path in pathlib.Path(jordanbounds.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"jordanbounds"}
    assert names == third_party


@pytest.mark.parametrize("text,message", [
    ('{"closure_order": true}', "cap closure_order must be a positive integer, got True"),
    ("5", "must hold a JSON object, got 5"),
    ("null", "must hold a JSON object, got None"),
])
def test_caps_file_rejects_non_integers_and_non_objects(capsys, tmp_path, text, message):
    f = tmp_path / "caps.json"
    f.write_text(text)
    code, out, err = run_cli(capsys, "--caps", str(f), "nfun", "--dim", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


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


# each cold verb imports only the modules it runs: (argv, modules it must not load);
# only `finite` loads dataclasses, for the records of permgroups
_NOT_CALCULUS = ("jordanbounds.calculus", "jordanbounds.boundvalue", "jordanbounds.dsl",
                 "jordanbounds.permgroups", "mpmath", "dataclasses")
_NOT_ENUMERATION = ("jordanbounds.enumeration", "jordanbounds.abelian",
                    "jordanbounds.rootsystems", "jordanbounds.dsl", "jordanbounds.permgroups",
                    "mpmath", "dataclasses")
_NOT_DSL_OR_FINITE = ("jordanbounds.dsl", "jordanbounds.permgroups", "mpmath", "dataclasses")
COLD_CASES = [
    (["catalog"], _NOT_CALCULUS),
    (["nfun", "--dim", "12"], _NOT_CALCULUS),
    (["enumerate", "--json", "--dim", "12"], _NOT_CALCULUS),
    # below calculus._GL_DECIMAL_N a value under the int -> str split loads
    # no libmpdec
    (["cnbound", "--n", "64"], _NOT_ENUMERATION + ("decimal",)),
    (["cnbound", "--n", "200"], _NOT_ENUMERATION),  # the libmpdec path
    (["minkowski", "--n", "64"], _NOT_ENUMERATION),
    (["sbound", "--dim", "12"], _NOT_DSL_OR_FINITE),
    (["bound", "dsl", "--expr", "semisimple([A1,A1,A1,A1,A1],sc)"],
     ("jordanbounds.permgroups", "mpmath", "dataclasses")),
    # log10 enclosures and magnitude comparisons need no mpmath either
    (["--json", "--trace", "bound", "aut0", "--dim", "1"], _NOT_DSL_OR_FINITE),
    (["--json", "bound", "aut0", "--dim", "2"], _NOT_DSL_OR_FINITE),
    (["bound", "aut0", "--dim", "2"], _NOT_DSL_OR_FINITE),
    (["--json", "finite", "verify", "--file", "corpus/s5.grp", "--context", "connected_dim:4"],
     ("jordanbounds.dsl", "mpmath")),
    (["--json", "--trace", "bound", "dsl", "--expr", "product(gl(40), torus(3))"],
     ("jordanbounds.permgroups", "mpmath", "dataclasses")),
]


@pytest.mark.parametrize("argv, absent", COLD_CASES,
                         ids=[" ".join(argv) for argv, _ in COLD_CASES])
def test_cold_verb_imports_only_its_modules(capsys, monkeypatch, argv, absent):
    monkeypatch.chdir(REPO_ROOT)  # where the fresh process runs
    code = ("import runpy, sys\n"
            f"sys.argv = ['jordanbounds', *{argv!r}]\n"
            "try:\n"
            "    runpy.run_module('jordanbounds', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            f"print([m for m in {absent!r} if m in sys.modules])\n")
    out = _run_fresh([sys.executable, "-c", code])
    assert out.returncode == 0, out.stderr
    *lines, loaded = out.stdout.decode().splitlines()
    assert loaded == "[]"
    assert run_cli(capsys, *argv) == (0, "".join(line + "\n" for line in lines), "")


def test_verb_modules_do_not_import_dataclasses():
    # the records on every verb's path do without dataclasses: importing
    # dataclasses (and inspect under it) costs a cold start about 6 ms
    out = _run_fresh([sys.executable, "-c",
                      "import sys, jordanbounds.cli, jordanbounds.enumeration, "
                      "jordanbounds.calculus, jordanbounds.dsl\n"
                      "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n"])
    assert out.returncode == 0, out.stderr


# the names the package exported eagerly, by defining submodule
EXPORTS = {
    "abelian": "FiniteAbelianGroup",
    "boundvalue": "BoundValue",
    "calculus": "BoundTriple DerivationTrace aut0_jordan_bound aut0_rank_bound aut0_triple "
                "combine_extension combine_product connected_jordan_bound "
                "connected_rank_bound connected_triple gl_jordan_bound leaf_triple "
                "minkowski_bound rank_bound_mod_commutator "
                "semisimple_jordan_bound",
    "caps": "Caps CapExceeded DEFAULT_CAPS load_caps",
    "dsl": "GroupExpr ParseError evaluate parse parse_file_text print_expr",
    "enumeration": "IsogenyClass SemisimpleType class_table embedding_dim "
                   "enumerate_semisimple isogeny_classes max_center_order "
                   "min_faithful_dim quotient_center",
    "permgroups": "PermGroup Permutation abelian_invariants closure "
                  "direct_product jordan_constant jordan_index load_group "
                  "max_abelian_order verify_bound",
    "rootsystems": "CatalogEntry CentralCharacter DominantWeight RootSystem SimpleType "
                   "admissible_types build_root_system catalog_entry central_character "
                   "weyl_dim",
}


def test_package_exports_resolve_lazily():
    names = 0
    for module, exported in EXPORTS.items():
        sub = importlib.import_module(f"jordanbounds.{module}")
        for name in exported.split():
            assert getattr(jordanbounds, name) is getattr(sub, name), name
            names += 1
    assert names == len(jordanbounds.__all__) == 56
    with pytest.raises(AttributeError, match="no_such_name"):
        jordanbounds.no_such_name
    assert jordanbounds.__version__ == "0.1.0"
    out = _run_fresh([sys.executable, "-c",
                      "import sys, jordanbounds\n"
                      "print([m for m in sys.modules if m.startswith('jordanbounds.')])"])
    assert out.returncode == 0, out.stderr
    assert out.stdout.decode() == "[]\n"


# exports that nothing in src/ or bench/ reads, each with the reason it stays
UNUSED_EXPORTS = {
    "max_center_order": "acceptance criterion 4 and the 2^floor(n/3) test use it",
    "central_character": "tests use it as the central-character reference",
}


def _top_level_reads(path):
    """(name defined or None, names read) for each top-level statement of a
    file; a name is read bare, as an attribute or by an import."""
    out = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        nodes = list(ast.walk(top))
        reads = ({n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                 | {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                 | {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names})
        out.append((getattr(top, "name", None), reads))
    return out


def test_every_export_is_used():
    package = pathlib.Path(jordanbounds.__file__).resolve().parent
    modules = {p.stem: _top_level_reads(p) for p in sorted(package.glob("*.py"))
               if p.name != "__init__.py"}  # the export table itself
    bench = set().union(*(reads for p in sorted((REPO_ROOT / "bench").glob("*.py"))
                          for _, reads in _top_level_reads(p)))
    unused = set()
    for name, home in jordanbounds._SUBMODULE.items():
        # a read inside the name's own definition does not count
        if not (name in bench or any(name in reads for module, statements in modules.items()
                                     for defined, reads in statements
                                     if (module, defined) != (home, name))):
            unused.add(name)
    assert unused == set(UNUSED_EXPORTS)
