"""Seeded inputs and per-operation output checks for the three workloads.

Nothing here imports jordanbounds: inputs depend only on the seed, and the
reference values are either recorded (oracle_values.json, taken from the
seed commit) or recomputed here from their definitions.

The seed draws one input set per run, which every pass of the run repeats.
An input set has a fixed composition (strata of operations with similar
cost); the seed draws the parameters inside each stratum and the order, so
that every seed puts the same kind of work on the same layers.  Without the
strata a seed that happens to draw n = 256 instead of n = 32 would look
like a regression.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

# E(n) for n = 0..20, the regression sequence of the project
E_SEQUENCE = (0, 0, 0, 3, 3, 3, 6, 6, 8, 9, 9, 11, 16, 16, 16, 32, 32, 32, 64, 64, 64)

CAP_BREACH_CAPS = {"subgroup_count": 1000}


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --- exact references ------------------------------------------------------


def gl_floor_ok(n: int, value: int) -> bool:
    """value < (sqrt(8n) + 1)^(2n^2) <= value + 1, decided exactly.

    The power is expanded as A + B*sqrt(r) in Z[sqrt(r)], r = 8n, by squaring
    (1 + r) + 2*sqrt(r) n^2 times over; the inequality is then a pair of
    integer comparisons of squares.
    """
    if n == 0:
        return value == 1
    r = 8 * n
    a, b = 1, 0
    base_a, base_b = 1 + r, 2
    e = n * n
    while e:
        if e & 1:
            a, b = a * base_a + b * base_b * r, a * base_b + b * base_a
        base_a, base_b = base_a * base_a + base_b * base_b * r, 2 * base_a * base_b
        e >>= 1
    d = value - a  # need d < b*sqrt(r) <= d + 1
    lower = d < 0 or d * d < b * b * r
    upper = d + 1 >= 0 and b * b * r <= (d + 1) * (d + 1)
    return lower and upper


def minkowski_reference(n: int) -> int:
    """prod over primes p <= n+1 of p^(sum_k floor(n / (p^k (p-1))))."""
    out = 1
    for p in range(2, n + 2):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        e, pk = 0, 1
        while n // (pk * (p - 1)):
            e += n // (pk * (p - 1))
            pk *= p
        out *= p ** e
    return out


# minimal faithful dimension of the simply connected and adjoint forms, for
# the semisimple types the calculus workload draws (total dimension <= 11)
# and the A1^5 leaf of the cold CLI workload
SEMISIMPLE_LEAVES = {
    "A1": (3, 2, 3),
    "A1,A1": (6, 4, 6),
    "A1,A1,A1": (9, 6, 9),
    "A2": (8, 3, 8),
    "A2,A1": (11, 5, 11),
    "B2": (10, 4, 5),
    "A1,A1,A1,A1,A1": (15, 10, 15),
}


def semisimple_leaf_ok(types: str, isogeny: str, j: int, rkf: int) -> bool:
    """min_faithful_dim(cls) <= rkf <= E(dim), and J is the GL bound at rkf."""
    dim, sc, adjoint = SEMISIMPLE_LEAVES[types]
    low = sc if isogeny == "sc" else adjoint
    return low <= rkf <= E_SEQUENCE[dim] and gl_floor_ok(rkf, j)


# --- embed_cold: one fresh CLI process per operation -----------------------

VERBS = ("nfun", "sbound", "enumerate")
BREACHES_PER_PASS = 5


def embed_cold_inputs(seed: int) -> List[dict]:
    """Operations of one pass, shuffled: one heavy query (a cold E(15..17)
    by nfun or sbound, bound aut0 --dim 2, which computes E(16), or the DSL
    A1^5 leaf, sc or adjoint, which computes E(15)), five cap breaches (any
    verb, n = 15..18), one cold E(12), E(13) and E(14) query per verb, four
    cnbound and two minkowski calls.

    The heavy queries cost about the same time and memory, and so do the
    breaches; enumerate --json at n >= 15 is left out of the heavy draw
    because it peaks about 3 MB higher.  The tail percentile of a run lands
    among the breaches, so there are enough of them to give it a steady
    value.
    """
    rng = rng_for("embed_cold", seed)
    heavy = rng.choice([(verb, n) for verb in ("nfun", "sbound") for n in (15, 16, 17)]
                       + [("aut0", 2), ("dsl", "sc"), ("dsl", "adjoint")])
    if heavy[0] == "aut0":
        ops = [{"kind": "aut0", "argv": ["bound", "aut0", "--dim", "2"], "dim": 2}]
    elif heavy[0] == "dsl":
        types = "A1,A1,A1,A1,A1"
        ops = [{"kind": "dsl", "types": types, "isogeny": heavy[1],
                "argv": ["bound", "dsl", "--expr", f"semisimple([{types}],{heavy[1]})"]}]
    else:
        ops = [_e_op(*heavy)]
    for _ in range(BREACHES_PER_PASS):
        op = _e_op(rng.choice(VERBS), rng.randint(15, 18))
        op.update(kind="breach", argv=["--caps", "{caps}"] + op["argv"])
        ops.append(op)
    for verb, n in zip(rng.sample(VERBS, 3), (12, 13, 14)):
        ops.append(_e_op(verb, n))
    for _ in range(4):
        m = rng.randint(2, 128)
        ops.append({"kind": "cnbound", "n": m, "argv": ["cnbound", "--n", str(m)]})
    for _ in range(2):
        m = rng.randint(1, 2048)
        ops.append({"kind": "minkowski", "n": m, "argv": ["minkowski", "--n", str(m)]})
    rng.shuffle(ops)
    return ops


def _e_op(verb: str, n: int) -> dict:
    argv = [verb, "--json", "--dim", str(n)] if verb == "enumerate" else [verb, "--dim", str(n)]
    return {"kind": verb, "dim": n, "argv": argv}


def _text_field(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"no line starting with {prefix!r}")


def check_cli(op: dict, code: int, stdout: str, stderr: str) -> Tuple[str, str]:
    """('ok' | 'failed' | 'wrong', detail) for one finished CLI process.

    'failed' is an unexpected non-zero exit; 'wrong' an output that does not
    satisfy its check.  Cap-breach operations must exit 3 with an
    'error: cap exceeded' message; its wording is not checked.
    """
    kind = op["kind"]
    if kind == "breach":
        if code == 3 and stderr.startswith("error: cap exceeded"):
            return "ok", ""
        return "wrong", f"expected a cap breach, got exit {code}: {stderr.strip()[:200]}"
    if code != 0:
        return "failed", f"exit {code}: {stderr.strip()[:200]}"
    try:
        good = _check_cli_output(op, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return "wrong", f"unreadable output: {exc}"
    return ("ok", "") if good else ("wrong", stdout.strip()[:200])


def _check_cli_output(op: dict, stdout: str) -> bool:
    kind = op["kind"]
    if kind == "nfun":
        return int(stdout) == E_SEQUENCE[op["dim"]]
    if kind == "sbound":
        return gl_floor_ok(E_SEQUENCE[op["dim"]], int(stdout))
    if kind == "enumerate":
        payload = json.loads(stdout)
        rows = payload["classes"]
        return (payload["dim"] == op["dim"] and rows
                and all(r["dim"] <= op["dim"] for r in rows)
                and max(int(r["min_faithful_dim"]) for r in rows) == E_SEQUENCE[op["dim"]])
    if kind == "cnbound":
        return gl_floor_ok(op["n"], int(stdout))
    if kind == "minkowski":
        return int(stdout) == minkowski_reference(op["n"])
    if kind == "dsl":
        j = int(_text_field(stdout, "J <="))
        rkf = int(_text_field(stdout, "Rk_f <="))
        return semisimple_leaf_ok(op["types"], op["isogeny"], j, rkf)
    if kind == "aut0":
        # J = S(t) * (t^t)^((4n + t + E(t)) t^t), t = 4n^2: far past the digit
        # cap, so it prints as a product with a log10 enclosure
        n = op["dim"]
        t = 4 * n * n
        rank = 4 * n + t + E_SEQUENCE[t]
        if int(_text_field(stdout, "Rk_f <=")) != rank:
            return False
        enclosure = _text_field(stdout, "J <=").rsplit("(~10^[", 1)[1].rstrip("])")
        lo, hi = (float(x) for x in enclosure.split(","))
        expected = rank * t ** t * t * math.log10(t)  # log10 S(t) is negligible
        return lo <= hi and abs(lo - expected) <= 1e-5 * expected
    raise KeyError(kind)


# --- finite_oracle: corpus groups and seeded direct products ----------------

CORPUS = ("a4", "a5", "d10", "d12", "d8", "klein", "q8", "s3", "s4", "s5",
          "sl25", "trivial", "z2", "z2z4z3", "z4", "z5", "z6")
CORPUS_ORDER = {"a4": 12, "a5": 60, "d10": 10, "d12": 12, "d8": 8, "klein": 4,
                "q8": 8, "s3": 6, "s4": 24, "s5": 120, "sl25": 120, "trivial": 1,
                "z2": 2, "z2z4z3": 24, "z4": 4, "z5": 5, "z6": 6}
# products of two nontrivial corpus groups up to this order; beyond it the
# cost depends on the lattice far more than on the order (d8 x d8, order 64,
# takes 18 s), which would let the draw decide the run time
PRODUCT_MAX_ORDER = 30
PRODUCT_PAIRS = tuple(
    (a, b) for a, b in itertools.combinations_with_replacement(CORPUS, 2)
    if "trivial" not in (a, b) and CORPUS_ORDER[a] * CORPUS_ORDER[b] <= PRODUCT_MAX_ORDER)


def finite_oracle_inputs(seed: int) -> List[str]:
    """Group names of one pass: the corpus and every product 'a*b' of
    PRODUCT_PAIRS, the seed drawing the order of the two factors (and so the
    permutation representation of the product) and the order of the groups.

    Every seed holds the same groups up to isomorphism.  With a draw of 8
    of the 23 products, the operations near the median time came from the
    drawn products, so the median moved with the draw.
    """
    rng = rng_for("finite_oracle", seed)
    names = list(CORPUS) + ["*".join(rng.sample(pair, 2)) for pair in PRODUCT_PAIRS]
    rng.shuffle(names)
    return names


def oracle_key(name: str) -> str:
    """The key of a group in oracle_values.json: products with the factors
    in corpus order."""
    return "*".join(sorted(name.split("*"), key=CORPUS.index))


def oracle_queries(degree: int) -> List[Tuple[str, str]]:
    """The five queries run on every group, in order."""
    return [("index", ""), ("constant", ""), ("verify", f"gl_dim:{degree}"),
            ("verify", "connected_dim:4"), ("verify", "aut0_dim:1")]


def load_oracle_values() -> Dict[str, dict]:
    with open(os.path.join(HERE, "oracle_values.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- bound_calculus: DSL expressions and GL bounds --------------------------

SEMISIMPLE_TYPES = ("A1", "A1,A1", "A1,A1,A1", "A2", "A2,A1", "B2")
# connected(5) expands to 196k digits; it has a slot of its own so that a
# random draw of it does not decide the run time
CONNECTED_DIMS = (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11)
TREE_DEPTH = 3
SHAPE_REPEATS = 8

# every light leaf the trees use, by kind; each kind fills the same share of
# the leaf slots and cycles through its parameters
LIGHT_LEAVES = (
    tuple(f"torus({n})" for n in range(1, 9)),
    tuple(f"unipotent({n})" for n in range(0, 9)),
    tuple(f"abelian_variety({n})" for n in range(1, 5)),
    tuple(f"finite({n})" for n in range(1, 65)),
    tuple(f"gl({n})" for n in range(1, 33)),
    tuple(f"gl_q({n})" for n in range(1, 33)),
    tuple(f"semisimple([{t}],{iso})" for t in SEMISIMPLE_TYPES for iso in ("sc", "adjoint")),
    tuple(f"connected({n})" for n in CONNECTED_DIMS),
    ("aut0(1)",),
)
# extension normals have order bound <= 8, which keeps the rank-power rule's
# Bd^(Rk_f * Bd) below a few thousand digits
NORMAL_LEAVES = (tuple(f"finite({n})" for n in range(1, 9)),
                 tuple(f"unipotent({n})" for n in range(0, 9)))


def _shapes(depth: int) -> List[tuple]:
    """Every tree shape of the given depth: 'L' a leaf, ('P', a, b) a
    product, ('E', a) an extension by a normal leaf."""
    if depth == 0:
        return ["L"]
    sub = _shapes(depth - 1)
    return [("P", a, b) for a in sub for b in sub] + [("E", a) for a in sub]


def _deck(kinds: tuple, size: int, rng: random.Random) -> List[str]:
    """size leaves, kind i % len(kinds) in slot i, shuffled: the multiset
    does not depend on the seed, only the order does."""
    deck = [kinds[i % len(kinds)][(i // len(kinds)) % len(kinds[i % len(kinds)])]
            for i in range(size)]
    rng.shuffle(deck)
    return deck


def _count(shape, kind: str) -> int:
    if shape == "L":
        return kind == "L"
    return (shape[0] == kind) + sum(_count(sub, kind) for sub in shape[1:])


def _fill(shape, leaves: List[str], normals: List[str]) -> str:
    if shape == "L":
        return leaves.pop()
    if shape[0] == "P":
        return f"product({_fill(shape[1], leaves, normals)}, {_fill(shape[2], leaves, normals)})"
    return f"extension({normals.pop()}, {_fill(shape[1], leaves, normals)})"


def bound_calculus_inputs(seed: int) -> List[dict]:
    """Operations of one pass: three large leaves, each in a product with a
    torus (a GL leaf near n = 190 that is expanded, the rational GL leaf at
    n = 190 that Minkowski's bound clamps, and connected(5)), every depth-3
    tree shape SHAPE_REPEATS times, and two direct GL bounds (n near 254 and
    n <= 128), shuffled.

    The trees hold the same multiset of leaves for every seed; the seed
    decides which leaves share a tree and the order.  A free draw of every
    leaf moved the median operation time by a third from seed to seed.

    The rational leaf's n is fixed: its clamp compares the GL bound with
    Minkowski's exactly, and the cost of that comparison depends on which
    small primes divide the GL bound, not smoothly on n.
    """
    rng = rng_for("bound_calculus", seed)
    ops = [
        {"kind": "expr", "text": f"product(gl({rng.randint(189, 192)}), torus({rng.randint(1, 8)}))"},
        {"kind": "expr", "text": f"product(gl_q(190), torus({rng.randint(1, 8)}))"},
        {"kind": "expr", "text": f"product(connected(5), torus({rng.randint(1, 8)}))"},
        {"kind": "gl", "n": rng.randint(253, 256)},
        {"kind": "gl", "n": rng.randint(2, 128)},
    ]
    shapes = _shapes(TREE_DEPTH) * SHAPE_REPEATS
    leaves = _deck(LIGHT_LEAVES, sum(_count(t, "L") for t in shapes), rng)
    normals = _deck(NORMAL_LEAVES, sum(_count(t, "E") for t in shapes), rng)
    ops += [{"kind": "expr", "text": _fill(t, leaves, normals)} for t in shapes]
    rng.shuffle(ops)
    return ops


def semisimple_leaves(text: str) -> List[Tuple[str, str]]:
    """(types, isogeny) of every semisimple leaf in an expression text."""
    out = []
    for chunk in text.split("semisimple([")[1:]:
        types, rest = chunk.split("]", 1)
        out.append((types, rest.lstrip(",").split(")", 1)[0].strip()))
    return out
