"""Benchmark of the jordanbounds engines, end to end and per module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/jordanbounds and
corpus/); nothing has to be installed.  Scratch files go to bench/.run/.

Workloads (closed loop, one client, one operation in flight, never more
than one child process at a time):

  embed_cold      every operation is a fresh `python -m jordanbounds`
                  process: cold E(n) queries (nfun, sbound, enumerate --json;
                  n = 12..17), bound aut0 --dim 2, a DSL semisimple A1^5
                  leaf, cnbound, minkowski, and cap breaches under a
                  benchmark-written caps file.  Each call recomputes E(n)
                  from nothing; almost all of it is abelian.all_subgroups.
  finite_oracle   one process per pass: the 17 corpus groups plus every
                  direct product of two of them up to order 30, the factors
                  and the groups in seeded order, each
                  asked jordan_index, jordan_constant and verify_bound for
                  gl_dim, connected_dim and aut0_dim:1.  The permgroups
                  lattice and centralizer refinement do the work.
  bound_calculus  one process per pass: seeded DSL expressions parsed,
                  evaluated, trace-replayed and serialised with to_json, and
                  direct gl_jordan_bound(n) calls, n <= 256.  The Z[sqrt(8n)]
                  power, decimal rendering and log10 comparisons do the work.

The seed draws one input set (workloads.py); a run repeats it in a fixed
number of passes, round(--seconds / PASS_S), at least MIN_PASSES.
The count depends only on --seconds, not on how fast the passes ran, so
every run takes the same number of samples and a percentile lands on the
same kind of operation in every run.  Library passes run in fresh
processes, so every pass starts cold.  The first pass checks every output; later passes must
reproduce its output digests.  With --trace 0 the run prints the end-to-end
metrics:

  setup_s      median of SETUP_REPEATS or more set-ups spread over the
               run: a fresh `catalog --max-rank 1` process (embed_cold),
               or package import plus input loading
  wall_s       wall time of the input set: the sum over its operations of
               each one's best time over the passes
  cpu_s        the same for user+sys CPU, children included
  op_p50_s     median over the operations of their best times
  op_tail_s    the same at the highest percentile that has at least 10 of
               the run's samples (passes x operations) beyond it
  peak_rss_mb  peak resident set: the largest child for embed_cold, the
               pass process otherwise

Operations are timed by their best pass because on a shared host they run
either at full speed or up to about 1.5x slower, in phases of seconds to
minutes; a median over a few passes flips between the two, and so does a
percentile over all samples.

The error rate (failed over attempted) is printed with its base and carried
by the `attempted` and `failed` fields; it is not a metric because it is 0
on two workloads.  An operation fails on an unexpected non-zero exit or an
exception; an output that fails its check makes the run incorrect.

With --trace 1 each round is an untraced pass followed by the same pass
traced.  Spans from wrappers around each module's public entry points
(tracer.py) give <module>.<function>.{calls,self_s,total_s}, the work
counts, cli.startup_s and trace.overhead_s (traced minus untraced wall_s).
Spans are written to bench/.run/trace-<workload>-<seed>.jsonl.  The work
counts must agree between the traced passes of a run and with those of an
earlier run of the same seed in this checkout; a difference makes the run
incorrect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DIR = os.path.join(HERE, ".run")

WORKLOADS = ("embed_cold", "finite_oracle", "bound_calculus")
MIN_PASSES = 3
# nominal pass length, which turns --seconds into a pass count
PASS_S = {"embed_cold": 13.0, "finite_oracle": 8.0, "bound_calculus": 7.5}
SETUP_REPEATS = 12
CHILD_TIMEOUT_S = 120
# no new round starts past this point, so that a run ends within 180 s
LAST_START_S = 100

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))
COUNT_NAMES = tuple(f"{name}.{count}" for name, (count, _) in tracer.COUNTERS.items()) + (
    "enumeration.min_faithful_dim.distinct_keys",)
PER_LAYER = tuple(
    [(f"{n}.calls", "count") for n in tracer.SPAN_NAMES]
    + [(f"{n}.{stat}", "s") for n in tracer.SPAN_NAMES for stat in ("self_s", "total_s")]
    + [(name, "count") for name in COUNT_NAMES]
    + [("enumeration.min_faithful_dim.repeat_ratio", "ratio"), ("cli.startup_s", "s"),
       ("trace.overhead_s", "s")])


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(argv, env, timeout=CHILD_TIMEOUT_S) -> Child:
    """Run one process to completion and take its own resource usage."""
    with tempfile.TemporaryFile(dir=RUN_DIR) as out, tempfile.TemporaryFile(dir=RUN_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                     out.read().decode(), err.read().decode())


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


# --- embed_cold ---------------------------------------------------------------


def embed_setup(env) -> float:
    child = run_child([sys.executable, "-m", "jordanbounds", "catalog", "--max-rank", "1"], env)
    if child.code != 0 or not child.stdout.startswith("A1"):
        raise RuntimeError(f"set-up command failed: exit {child.code}: {child.stderr[-300:]}")
    return child.wall


def embed_pass(seed, k, traced, env, caps_path, spans_path) -> dict:
    ops = wl.embed_cold_inputs(seed)
    res = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "op_s": [], "op_cpu_s": [],
           "status": [], "digests": [], "problems": [], "inputs": [], "stderr": []}
    layers, startups = {}, []
    for i, op in enumerate(ops):
        argv = [a.replace("{caps}", caps_path) for a in op["argv"]]
        res["inputs"].append(" ".join(argv).replace(caps_path, "<caps>"))
        if traced:
            out = os.path.join(RUN_DIR, "shim-summary.json")
            cenv = dict(env, JBBENCH_OUT=out, JBBENCH_OP=str(i), JBBENCH_SPANS=spans_path,
                        JBBENCH_PASS=f"embed_cold:{seed}:{k}",
                        JBBENCH_SPAWN=repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
            child = run_child([sys.executable, os.path.join(HERE, "shim.py")] + argv, cenv)
        else:
            child = run_child([sys.executable, "-m", "jordanbounds"] + argv, env)
        status, detail = wl.check_cli(op, child.code, child.stdout, child.stderr)
        res["wall_s"] += child.wall
        res["cpu_s"] += child.cpu
        res["peak_rss_mb"] = max(res["peak_rss_mb"], child.maxrss_kb / 1024)
        res["op_s"].append(child.wall)
        res["op_cpu_s"].append(child.cpu)
        res["status"].append(status)
        res["digests"].append("")  # every CLI output is checked
        if status != "ok":
            res["problems"].append(f"{res['inputs'][-1]}: {status} {detail}")
            res["stderr"].append(child.stderr)
        if traced:
            with open(out, encoding="utf-8") as fh:
                summary = json.load(fh)
            os.remove(out)
            startups.append(summary.pop("cli.startup_s"))
            for key, value in summary.items():
                layers[key] = layers.get(key, 0) + value
    if traced:
        calls = layers["enumeration.min_faithful_dim.calls"]
        layers["enumeration.min_faithful_dim.repeat_ratio"] = (
            1 - layers["enumeration.min_faithful_dim.distinct_keys"] / calls if calls else 0.0)
        layers["cli.startup_s"] = statistics.median(startups)
        res["layers"] = layers
    return res


# --- library workloads ----------------------------------------------------------


def worker_run(workload, seed, k, traced, env, spans_path) -> dict:
    """One pass in a fresh process; only the first untraced pass checks its
    outputs in full, later passes must reproduce its output digests."""
    check = "1" if k == 0 and not traced else "0"
    child = run_child([sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
                       str(k), "1" if traced else "0", check, spans_path], env)
    try:
        if child.code != 0:
            raise ValueError(f"exit {child.code}")
        res = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise RuntimeError(f"{workload} worker pass {k} broke ({exc}): {child.stderr[-2000:]}")
    res.setdefault("stderr", [child.stderr] if child.stderr else [])
    if "layers" in res:
        res["layers"]["cli.startup_s"] = 0.0
    return res


# --- statistics and output ----------------------------------------------------------


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def machine() -> str:
    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {sys.version.split()[0]} ({sys.implementation.name}), {cpu}, "
            f"nproc {os.cpu_count()}, usable {len(os.sched_getaffinity(0))}")


def check_counts(workload, seed, k, layers) -> str:
    """Compare a pass's deterministic counts with an earlier run of the seed."""
    path = os.path.join(RUN_DIR, "counts.json")
    counts = {n: layers[n] for n, unit in PER_LAYER if unit == "count"}
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except (OSError, ValueError):
        record = {}
    key = f"{workload}:{seed}:{k}"
    before = record.get(key)
    record[key] = counts
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if before is None:
        return "recorded"
    diff = sorted(n for n in counts if before.get(n) != counts[n])
    return "repeat" if not diff else "differ: " + ", ".join(diff)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (os.path.isfile(os.path.join("src", "jordanbounds", "__init__.py"))
            and os.path.isdir("corpus")):
        print("error: run from the root of a jordanbounds checkout "
              "(src/jordanbounds and corpus/ not found)", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the checks read long decimals
    os.makedirs(RUN_DIR, exist_ok=True)
    env = child_env()
    caps_path = os.path.join(RUN_DIR, "caps-breach.json")
    with open(caps_path, "w", encoding="utf-8") as fh:
        json.dump(wl.CAP_BREACH_CAPS, fh)
    spans_path = os.path.join(RUN_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
    open(spans_path, "w").close()
    w, seed, traced = args.workload, args.seed, bool(args.trace)
    print(f"workload {w}, seed {seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"machine: {machine()}")

    def one_pass(k, with_trace):
        if w == "embed_cold":
            return embed_pass(seed, k, with_trace, env, caps_path, spans_path)
        return worker_run(w, seed, k, with_trace, env, spans_path)

    def set_up():
        if w == "embed_cold":
            return embed_setup(env)
        return worker_run(w, seed, -1, False, env, spans_path)["setup_s"]

    passes = max(MIN_PASSES, round(args.seconds / PASS_S[w]))
    setups, plain, trace_passes = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        if not traced:
            # spread over the run, so that one slow phase of the host does
            # not hold all of them
            setups += [set_up() for _ in range(math.ceil(SETUP_REPEATS / passes))]
        plain.append(one_pass(k, False))
        if traced:
            trace_passes.append(one_pass(k, True))
        k += 1
        expected_end = (time.perf_counter() - start) * (k + 1) / k
        if traced:
            done = expected_end > args.seconds
        else:
            done = k >= passes
        if done or expected_end > LAST_START_S:
            break

    everything = plain + trace_passes
    reference = plain[0]["digests"]
    for p in everything[1:]:
        for i, (digest, status) in enumerate(zip(p["digests"], p["status"])):
            if status == "ok" and reference[i] and digest != reference[i]:
                p["status"][i] = "wrong"
                p["problems"].append(f"{p['inputs'][i]}: output differs from the checked first pass")
    statuses = [s for p in everything for s in p["status"]]
    attempted, failed = len(statuses), statuses.count("failed")
    correct = "wrong" not in statuses
    print(f"inputs (every pass): " + " | ".join(plain[0]["inputs"]))
    for p in everything:
        for line in p["problems"]:
            print(f"  problem: {line}")
    defect = sum(1 for p in everything for e in p["stderr"] if "integer string conversion" in e)
    print(f"error_rate {failed / attempted:.4f} ({failed} failed of {attempted} attempted; "
          f"{defect} hit the interpreter's int-to-str digit limit, a known defect)")
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        base = json.load(fh)["end_to_end"][w]["error_rate"]
    print(f"baseline error_rate {base['share']:.4f} ({base['failed']} failed of {base['attempted']})")

    if not traced:
        setups += [p["setup_s"] for p in plain if "setup_s" in p]
        best = [min(t) for t in zip(*(p["op_s"] for p in plain))]
        best_cpu = [min(c) for c in zip(*(p["op_cpu_s"] for p in plain))]
        samples = len(plain) * len(best)
        pct = math.floor(100 * (1 - 10 / samples))
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(best),
            "cpu_s": sum(best_cpu),
            "op_p50_s": statistics.median(best),
            "op_tail_s": percentile(best, pct),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        }
        runs = f"best of {len(plain)} passes"
        notes = {"setup_s": f"median of {len(setups)} set-ups",
                 "wall_s": f"sum over {len(best)} operations, each the {runs}",
                 "cpu_s": f"sum over {len(best)} operations, each the {runs}",
                 "op_p50_s": f"median over {len(best)} operations, each the {runs}",
                 "op_tail_s": f"p{pct}: {len(plain)} passes give {samples} samples, 10 beyond it",
                 "peak_rss_mb": "max over " + ("child processes" if w == "embed_cold" else "pass processes")}
        units = dict(END_TO_END)
    else:
        layers = [p["layers"] for p in trace_passes]
        # counts are deterministic: every traced pass of the run must agree
        counted = [name for name, unit in PER_LAYER if unit == "count"]
        unequal = [name for name in counted if len({l[name] for l in layers}) > 1]
        if unequal:
            correct = False
            print("  counts differ between traced passes: " + ", ".join(unequal))
        metrics = {name: layers[0][name] if unit == "count" else statistics.median(l[name] for l in layers)
                   for name, unit in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in trace_passes)
                                       - statistics.median(p["wall_s"] for p in plain))
        print(f"tracing overhead: traced wall_s {statistics.median(p['wall_s'] for p in trace_passes):.3f} s"
              f" - untraced {statistics.median(p['wall_s'] for p in plain):.3f} s")
        print("work counts (deterministic):")
        for name in COUNT_NAMES:
            print(f"  {name:<48} {metrics[name]}")
        print(f"  enumeration.min_faithful_dim.repeat_ratio        "
              f"{metrics['enumeration.min_faithful_dim.repeat_ratio']:.4f} "
              f"(1 - {metrics['enumeration.min_faithful_dim.distinct_keys']} distinct / "
              f"{metrics['enumeration.min_faithful_dim.calls']} calls)")
        for k, l in enumerate(layers):
            verdict = check_counts(w, seed, k, l)
            print(f"  pass {k} counts vs earlier run of this seed: {verdict}")
            if verdict.startswith("differ"):
                correct = False
        print("layers by self time (median over traced passes):")
        for name in sorted(tracer.SPAN_NAMES, key=lambda n: -metrics[f"{n}.self_s"]):
            if metrics[f"{name}.calls"]:
                print(f"  {name:<40} calls {metrics[name + '.calls']:>9}  "
                      f"self {metrics[name + '.self_s']:9.4f} s  total {metrics[name + '.total_s']:9.4f} s")
        notes = {}
        units = dict(PER_LAYER)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}" + (f"  ({notes[name]})" if name in notes else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
