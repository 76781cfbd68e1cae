"""One pass of a library workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED PASS TRACE CHECK SPANS_FILE

WORKLOAD is finite_oracle or bound_calculus; PASS -1 only measures set-up.
Set-up (package import plus input loading; for bound_calculus also the
warm-up of E(n) for n <= 11, which every expression query would otherwise
pay once per process) and every operation are timed here.  With CHECK 1
the outputs are checked after the timed section, with tracing switched
off, so that the checks neither count as work nor warm caches for it.
Every pass reports a digest of each output, so that the caller can hold
passes of the same input set to the checked one.  Prints one JSON object
on its last line of standard output.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

import tracer
import workloads as wl


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    workload, seed, pass_index = argv[1], int(argv[2]), int(argv[3])
    trace, check, spans_path = argv[4] == "1", argv[5] == "1", argv[6]
    if workload == "finite_oracle":
        names = wl.finite_oracle_inputs(seed)
    elif workload == "bound_calculus":
        ops = wl.bound_calculus_inputs(seed)
    else:
        raise SystemExit(f"unknown library workload {workload!r}")

    rec = tracer.Recorder()
    t0 = time.perf_counter()
    import jordanbounds  # noqa: F401  (set-up: the package import)
    from jordanbounds import calculus, dsl, enumeration, permgroups
    if trace:
        tracer.install(rec)
    if workload == "bound_calculus":
        for n in range(12):
            enumeration.embedding_dim(n)
    else:
        base = {n: permgroups.load_group(f"corpus/{n}.grp") for n in wl.CORPUS}
        groups = dict(base)
        for name in names:
            if "*" in name:
                a, b = name.split("*")
                groups[name] = permgroups.direct_product(base[a], base[b])
        ops = [{"group": n, "query": q, "context": c}
               for n in names for q, c in wl.oracle_queries(groups[n].degree)]
    setup_s = time.perf_counter() - t0
    if pass_index < 0:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    results, times, cpus = [], [], []
    cpu0 = _cpu()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        rec.op = i
        c = _cpu()
        t = time.perf_counter()
        try:
            if workload == "finite_oracle":
                out = _oracle_op(permgroups, groups[op["group"]], op)
            else:
                out = _calculus_op(calculus, dsl, op)
            err = None
        except Exception as exc:  # an operation that raises counts as failed
            out, err = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        times.append(time.perf_counter() - t)
        cpus.append(_cpu() - c)
        results.append((out, err))
    wall_s = time.perf_counter() - start
    cpu_s = _cpu() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rec.enabled = False

    oracle = wl.load_oracle_values() if workload == "finite_oracle" else None
    statuses = []
    for op, (out, err) in zip(ops, results):
        if err is not None:
            statuses.append(("failed", err))
        elif not check:
            statuses.append(("ok", ""))
        elif workload == "finite_oracle":
            statuses.append(_check_oracle(oracle, op, out))
        else:
            statuses.append(_check_calculus(dsl, op, out))

    payload = {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024,
        "op_s": times, "op_cpu_s": cpus, "status": [s for s, _ in statuses],
        "digests": [_digest(out) for out, _ in results],
        "problems": [f"{_describe(op)}: {s} {d}" for op, (s, d) in zip(ops, statuses) if s != "ok"],
        "inputs": [_describe(op) for op in ops] if workload == "bound_calculus" else names,
    }
    if trace:
        payload["layers"] = rec.summary()
        rec.dump(spans_path, f"{workload}:{seed}:{pass_index}")
    print(json.dumps(payload))
    return 0


def _digest(out) -> str:
    if out is None:
        return ""
    if isinstance(out, int):
        text = out.to_bytes((out.bit_length() + 8) // 8, "big").hex()
    elif isinstance(out, tuple):  # (triple, replayed, to_json payload)
        text = json.dumps(out[2], sort_keys=True)
    else:
        text = repr(out)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _describe(op: dict) -> str:
    if "group" in op:
        return f"{op['query']} {op['group']} {op['context']}".strip()
    return op["text"] if op["kind"] == "expr" else f"gl_jordan_bound({op['n']})"


def _oracle_op(permgroups, group, op):
    if op["query"] == "index":
        return permgroups.jordan_index(group)
    if op["query"] == "constant":
        return permgroups.jordan_constant(group)
    report = permgroups.verify_bound(group, op["context"])
    return {"passed": report.passed, "jordan_index": report.jordan_index,
            "jordan_constant": report.jordan_constant}


def _check_oracle(oracle, op, out):
    want = oracle[wl.oracle_key(op["group"])]
    if op["query"] == "index":
        good = out == want["jordan_index"]
    elif op["query"] == "constant":
        good = out == want["jordan_constant"]
    else:
        good = out == {"passed": want["verify"][op["context"]],
                       "jordan_index": want["jordan_index"],
                       "jordan_constant": want["jordan_constant"]}
    return ("ok", "") if good else ("wrong", f"got {out}, recorded {want}")


def _calculus_op(calculus, dsl, op):
    if op["kind"] == "gl":
        return calculus.gl_jordan_bound(op["n"])
    expr = dsl.parse(op["text"])
    triple, trace = dsl.evaluate(expr)
    replayed = trace.replay()
    return triple, replayed, triple.to_json()


def _check_calculus(dsl, op, out):
    if op["kind"] == "gl":
        return ("ok", "") if wl.gl_floor_ok(op["n"], out) else ("wrong", "not the exact floor")
    triple, replayed, js = out
    if not (replayed.j == triple.j and replayed.rkf == triple.rkf and replayed.bd == triple.bd):
        return "wrong", f"trace replays to {replayed}, evaluation gave {triple}"
    j = js["j"]
    if j["infinite"] != triple.j.is_infinite:
        return "wrong", "infinite flag disagrees with the bound"
    if j["decimal"] is not None:
        lo, hi = j["log10"]
        if not int(lo) + 1 <= len(j["decimal"]) <= int(hi) + 1:
            return "wrong", f"{len(j['decimal'])} digits outside the log10 enclosure {lo}, {hi}"
    for types, iso in wl.semisimple_leaves(op["text"]):
        leaf, _ = dsl.evaluate(dsl.parse(f"semisimple([{types}],{iso})"))
        if not wl.semisimple_leaf_ok(types, iso, leaf.j.to_int(), int(leaf.rkf)):
            return "wrong", f"semisimple leaf {types} {iso} gives {leaf}"
    return "ok", ""


if __name__ == "__main__":
    sys.exit(main(sys.argv))
