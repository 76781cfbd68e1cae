"""Span tracing of the jordanbounds modules, installed from outside the package.

`install()` wraps the public entry points listed in TARGETS.  A wrapper is
rebound everywhere the original object is reachable at call time: the
defining module, every package module that imported it with
`from ... import`, and module-level registries (dicts) that hold it, such as
the calculus replay table.  Methods are wrapped on their class.

Each call records a span (id, parent id, operation id, name, start, end).
Spans stay in memory until `dump()` writes them out; `summary()` folds them
into per-function calls, self time (span minus child spans) and total time,
plus the work counts named in COUNTERS.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# (module, attribute path) of every traced entry point, grouped by layer
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("rootsystems", "build_root_system"),
    ("rootsystems", "RootSystem.weights_up_to"),
    ("abelian", "all_subgroups"),
    ("abelian", "subgroup_closure"),
    ("abelian", "quotient_invariants"),
    ("abelian", "minimal_generators"),
    ("enumeration", "enumerate_semisimple"),
    ("enumeration", "isogeny_classes"),
    ("enumeration", "min_faithful_dim"),
    ("enumeration", "embedding_dim"),
    ("calculus", "gl_jordan_bound"),
    ("calculus", "leaf_triple"),
    ("calculus", "combine_extension"),
    ("calculus", "combine_product"),
    ("calculus", "DerivationTrace.replay"),
    ("calculus", "connected_triple"),
    ("calculus", "aut0_triple"),
    ("boundvalue", "BoundValue.compare"),
    ("boundvalue", "BoundValue.log10_interval"),
    ("boundvalue", "BoundValue.to_json"),
    ("dsl", "parse"),
    ("dsl", "evaluate"),
    ("permgroups", "load_group"),
    ("permgroups", "direct_product"),
    ("permgroups", "jordan_index"),
    ("permgroups", "max_abelian_order"),
    ("permgroups", "jordan_constant"),
    ("permgroups", "verify_bound"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# deterministic work counts: span name -> (count name, increment(args, kwargs, result))
COUNTERS = {
    "abelian.all_subgroups": ("subgroups", lambda a, k, out: len(out)),
    "enumeration.enumerate_semisimple": ("types", lambda a, k, out: len(out)),
    "enumeration.isogeny_classes": ("classes", lambda a, k, out: len(out)),
    "calculus.gl_jordan_bound": ("bits", lambda a, k, out: out.bit_length()),
    # log10_interval(self, dps=30): precision above the default is an escalation
    "boundvalue.BoundValue.log10_interval":
        ("escalations", lambda a, k, out: int(_arg(a, k, 1, "dps", 30) > 30)),
    "boundvalue.BoundValue.to_json":
        ("digits", lambda a, k, out: len(out["decimal"] or "")),
}


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.op = -1
        self.enabled = True
        self.counts: Dict[str, int] = defaultdict(int)
        # min_faithful_dim call keys, for the repeat ratio
        self.mfd_calls = 0
        self.mfd_keys = set()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        is_mfd = name == "enumeration.min_faithful_dim"
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            rec.spans.append(None)
            rec.stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                rec.stack.pop()
                rec.spans[sid] = (sid, parent, rec.op, name, start, end)
            if counter is not None:
                rec.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs, out)
            if is_mfd:
                cls = args[0]
                rec.mfd_calls += 1
                rec.mfd_keys.add((cls.base, cls.kernel))
            return out

        return traced

    def summary(self) -> Dict[str, float]:
        """calls / self_s / total_s per span name, plus the work counts."""
        calls = dict.fromkeys(SPAN_NAMES, 0)
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            sid, parent, _, name, start, end = span
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for span in self.spans:
            sid, _, _, name, start, end = span
            self_s[name] += end - start - child[sid]
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.total_s"] = total[name]
        for name, (count, _) in COUNTERS.items():
            out[f"{name}.{count}"] = self.counts.get(f"{name}.{count}", 0)
        out["enumeration.min_faithful_dim.repeat_ratio"] = (
            1.0 - len(self.mfd_keys) / self.mfd_calls if self.mfd_calls else 0.0)
        out["enumeration.min_faithful_dim.distinct_keys"] = len(self.mfd_keys)
        return out

    def dump(self, path: str, pass_id: str) -> None:
        """Write the spans as JSON lines: [pass, id, parent, op, name, start, end]."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps([pass_id, *span]) + "\n")


def _resolve(obj, path: str):
    owner = obj
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, path.split(".")[-1]


def install(rec: Recorder) -> None:
    """Wrap every target; jordanbounds must already be importable."""
    import importlib

    modules = {name: importlib.import_module(f"jordanbounds.{name}")
               for name in {mod for mod, _ in TARGETS}}
    package = [m for n, m in sys.modules.items()
               if m is not None and (n == "jordanbounds" or n.startswith("jordanbounds."))]
    for mod, path in TARGETS:
        owner, attr = _resolve(modules[mod], path)
        original = getattr(owner, attr)
        wrapped = rec.wrap(f"{mod}.{path}", original)
        setattr(owner, attr, wrapped)
        if owner is not modules[mod]:
            continue  # a method: callers look it up on the class
        for other in package:
            namespace = vars(other)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(other, key, wrapped)
                elif isinstance(value, dict):
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            value[dkey] = wrapped
