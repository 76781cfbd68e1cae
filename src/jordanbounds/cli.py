"""Command-line interface.

One binary with verb-style subcommands; every verb reports in plain text or
JSON (values as decimal strings), optionally with the derivation trace.
Exit codes: 0 success, 1 input/computation error, 2 usage error, 3 cap
breach.
"""

from __future__ import annotations

import argparse
import sys

# each verb imports the modules it runs, so a cold process compiles only those
from .caps import Caps, CapExceeded, DEFAULT_CAPS, load_caps


def _global_flags(parser: argparse.ArgumentParser, leaf: bool) -> None:
    # on leaf parsers the default is SUPPRESS so a flag given before the verb
    # is not clobbered; the flags then work in either position
    parser.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS if leaf else False,
                        help="emit JSON instead of text")
    parser.add_argument("--trace", action="store_true",
                        default=argparse.SUPPRESS if leaf else False,
                        help="print the derivation trace")
    parser.add_argument("--caps", metavar="FILE",
                        default=argparse.SUPPRESS if leaf else None,
                        help="JSON file overriding resource caps")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="jordanbounds",
        description="Effective Jordan-property bounds: classification catalogue, "
                    "semisimple enumeration, bound calculus and finite-group checks.")
    _global_flags(top, leaf=False)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("catalog", help="classification table of the simple types")
    p.add_argument("--max-rank", type=int, default=8)
    _global_flags(p, leaf=True)

    p = sub.add_parser("enumerate", help="isogeny classes up to a dimension")
    p.add_argument("--dim", type=int, required=True)
    _global_flags(p, leaf=True)

    p = sub.add_parser("nfun", help="embedding dimension for semisimple groups of dim <= N")
    p.add_argument("--dim", type=int, required=True)
    _global_flags(p, leaf=True)

    p = sub.add_parser("cnbound", help="Jordan bound for the n-dimensional general linear group")
    p.add_argument("--n", type=int, required=True)
    _global_flags(p, leaf=True)

    p = sub.add_parser("minkowski", help="Minkowski bound for the rational general linear group")
    p.add_argument("--n", type=int, required=True)
    _global_flags(p, leaf=True)

    p = sub.add_parser("sbound", help="Jordan bound for semisimple groups of dim <= N")
    p.add_argument("--dim", type=int, required=True)
    _global_flags(p, leaf=True)

    p = sub.add_parser("bound", help="bound evaluators")
    bsub = p.add_subparsers(dest="what", required=True)
    for what, help_text in (("connected", "connected algebraic groups of a dimension"),
                            ("aut0", "connected automorphism groups of projective varieties"),
                            ("bir", "connected groups of birational automorphisms")):
        bp = bsub.add_parser(what, help=help_text)
        bp.add_argument("--dim", type=int, required=True)
        _global_flags(bp, leaf=True)
    bp = bsub.add_parser("dsl", help="evaluate a structured group description")
    src = bp.add_mutually_exclusive_group(required=True)
    src.add_argument("--expr", help="expression text")
    src.add_argument("--file", help="file with one expression")
    _global_flags(bp, leaf=True)

    p = sub.add_parser("finite", help="exact finite-group computations")
    fsub = p.add_subparsers(dest="what", required=True)
    for what, help_text in (("index", "Jordan index |G| / max abelian order"),
                            ("constant", "exact smallest Jordan constant"),
                            ("rkf", "minimal generator count of an abelian group"),
                            ("verify", "compare exact values against a bound")):
        fp = fsub.add_parser(what, help=help_text)
        fp.add_argument("--file", required=True, help="permutation group file")
        if what == "verify":
            fp.add_argument("--context", required=True,
                            help="gl_dim:N | connected_dim:N | aut0_dim:N")
        _global_flags(fp, leaf=True)
    return top


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        import json
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        for line in text_lines:
            print(line)


def _trace_lines(trace) -> list[str]:
    out = ["trace:"]
    for i, step in enumerate(trace.steps, start=1):
        out.append(f"  [{i}] {step.rule}: {step.statement}")
        out.append(f"      inputs: {', '.join(str(x) for x in step.inputs)}")
        out.append(f"      output: {step.output}")
    return out


def _run(args, caps: Caps) -> int:
    digits = caps.decimal_digits
    if args.verb == "catalog":
        from .rootsystems import admissible_types, catalog_entry
        rows = []
        for t in admissible_types(args.max_rank):
            entry = catalog_entry(t)
            rows.append({"type": str(t), "dim": entry.dim, "rank": entry.rank,
                         "center": [str(d) for d in entry.center.factors]})
        text = [f"{r['type']:<4} dim={r['dim']:<5} rank={r['rank']:<3} "
                f"center={'x'.join('Z' + d for d in r['center']) or '1'}"
                for r in rows]
        _emit(args, {"command": "catalog", "max_rank": args.max_rank, "rows": rows}, text)
        return 0

    if args.verb == "enumerate":
        from .enumeration import class_table
        rows = class_table(args.dim, caps)
        text = [f"{r['name']:<24} dim={r['dim']:<4} center={'x'.join('Z' + d for d in r['center']) or '1':<10} "
                f"min_faithful={r['min_faithful_dim']}" for r in rows]
        _emit(args, {"command": "enumerate", "dim": args.dim, "classes": rows}, text)
        return 0

    if args.verb == "nfun":
        from .enumeration import embedding_dim
        value = embedding_dim(args.dim, caps)
        _emit(args, {"command": "nfun", "dim": args.dim, "value": str(value)}, [str(value)])
        return 0

    if args.verb == "finite":
        from . import permgroups
        group = permgroups.load_group(args.file, caps)
        base = {"command": f"finite {args.what}", "file": args.file,
                "degree": group.degree, "order": str(group.order)}
        if args.what == "index":
            value = permgroups.jordan_index(group)
            _emit(args, {**base, "value": str(value)}, [str(value)])
            return 0
        if args.what == "constant":
            value = permgroups.jordan_constant(group)
            _emit(args, {**base, "value": str(value)}, [str(value)])
            return 0
        if args.what == "rkf":
            invariants = permgroups.abelian_invariants(group)
            value = len(invariants)
            _emit(args, {**base, "value": str(value),
                         "invariant_factors": [str(d) for d in invariants]},
                  [str(value)])
            return 0
        report = permgroups.verify_bound(group, args.context, caps)
        _emit(args, {**base, **report.to_json(digits)}, report.lines(digits))
        return 0

    # the remaining verbs evaluate the bound calculus
    from . import calculus
    from .boundvalue import decimal
    if args.verb == "cnbound":
        value = calculus.gl_jordan_decimal(args.n)
        _emit(args, {"command": "cnbound", "n": args.n, "value": value}, [value])
        return 0

    if args.verb == "minkowski":
        value = decimal(calculus.minkowski_bound(args.n))
        _emit(args, {"command": "minkowski", "n": args.n, "value": value}, [value])
        return 0

    if args.verb == "sbound":
        value = calculus.semisimple_jordan_bound(args.dim, caps)
        payload = {"command": "sbound", "dim": args.dim}
        if args.json:
            payload["value"] = value.to_json(digits)
        _emit(args, payload, [value.render(digits)])
        return 0

    if args.verb == "bound":
        if args.what == "dsl":
            from . import dsl
            if args.expr is not None:
                expr = dsl.parse(args.expr)
            else:
                with open(args.file, "r", encoding="utf-8") as fh:
                    expr = dsl.parse_file_text(fh.read())
            triple, trace = dsl.evaluate(expr, caps)
            payload = {"command": "bound dsl", "expr": dsl.print_expr(expr)}
            text = [f"expr: {dsl.print_expr(expr)}",
                    f"J <= {triple.j.render(digits)}",
                    f"Rk_f <= {triple.rkf}",
                    f"Bd <= {calculus.render_order(triple.bd)}"]
        else:
            # a connected subgroup of Bir(X) acts biregularly on a projective
            # model of the same dimension, so bir shares the aut0 bound
            fn = {"connected": calculus.connected_triple,
                  "aut0": calculus.aut0_triple,
                  "bir": calculus.aut0_triple}[args.what]
            triple, trace = fn(args.dim, caps)
            payload = {"command": f"bound {args.what}", "dim": args.dim}
            text = [f"J <= {triple.j.render(digits)}", f"Rk_f <= {triple.rkf}"]
        if args.json:
            payload.update(j=triple.j.to_json(digits), rkf=str(triple.rkf))
            if args.what == "dsl":
                payload["bd"] = calculus.render_order(triple.bd)
            if args.trace:
                payload["trace"] = trace.to_json()
        elif args.trace:
            text.extend(_trace_lines(trace))
        _emit(args, payload, text)
        return 0

    raise AssertionError(f"unhandled verb {args.verb}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        caps = load_caps(args.caps) if args.caps else DEFAULT_CAPS
        return _run(args, caps)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
