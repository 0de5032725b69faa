"""Command-line surface: bounds, constructions, verification, search, tables.

Exit codes follow a CI-friendly contract: 0 = all checks pass, 1 = a
mathematical expectation failed, 2 = usage or IO error.  All output is
deterministic given the flags (search certificates additionally given
budgets), so stdout can be pinned in golden tests.  In JSON output, bound
values are serialized as decimal strings to sidestep 64-bit consumers.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import bounds, constructions, graphcore, meanineq, search


def _add_bound_parser(sub) -> None:
    p = sub.add_parser("bound", help="evaluate size bounds for (v, w) at a girth floor")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--girth", type=int, choices=(6, 8), default=8)
    p.add_argument(
        "--method",
        choices=("all", "reiman", "cubic", "coarse", "cap"),
        default="all",
    )
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=_cmd_bound)


def _cmd_bound(args, parser) -> int:
    if args.v < 1 or args.w < 1:
        parser.error("--v and --w must be >= 1")
    if args.girth == 6 and args.method in ("cubic", "cap"):
        parser.error(f"method {args.method!r} applies only to girth 8")
    report = bounds.bound_report(args.v, args.w, args.girth)
    if args.method == "all":
        values = report.values
    else:
        values = {args.method: report.values.get(args.method)}
    if args.as_json:
        payload = {
            "v": args.v,
            "w": args.w,
            "girth": args.girth,
            "values": {
                name: (str(val) if val is not None else None)
                for name, val in values.items()
            },
        }
        if args.method == "all":
            payload["binding"] = report.binding
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"v={args.v} w={args.w} girth={args.girth}")
    for name in bounds.METHOD_ORDER:
        if name not in values:
            continue
        val = values[name]
        if val is None:
            print(f"{name}: n/a")
        elif args.method == "all" and name == report.binding:
            print(f"{name}: {val} (binding)")
        else:
            print(f"{name}: {val}")
    return 0


def _add_construct_parser(sub) -> None:
    p = sub.add_parser("construct", help="generate a named graph family member")
    p.add_argument("kind", choices=tuple(_CONSTRUCT_KINDS))
    p.add_argument("--t", type=int, help="grid parameter")
    p.add_argument("--q", type=int, help="prime field order for pg2/wq")
    p.add_argument("--a", type=int, help="first class size for complete")
    p.add_argument("--b", type=int, help="second class size for complete")
    p.add_argument("--v", type=int, help="class V size for unbalanced6/unbalanced8")
    p.add_argument("--w", type=int, help="class W size for unbalanced6/unbalanced8")
    p.add_argument("--input", help="uncoloured graph JSON for expand")
    p.add_argument("--out", required=True, help="output path for the Graph JSON")
    p.set_defaults(func=_cmd_construct)


def _load_uncoloured(path: str) -> graphcore.Graph:
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('uncoloured graph JSON needs fields "n" and "edges"')
    n, limit = obj["n"], graphcore.MAX_JSON_CLASS_SIZE
    if not isinstance(n, int) or isinstance(n, bool) or n > limit:
        raise ValueError(
            f"uncoloured graph JSON field 'n' must be an integer <= {limit}, got {n!r}"
        )
    return graphcore.Graph(n, [tuple(pair) for pair in obj["edges"]])


def _regular(n: int, d: int) -> tuple[int, int, int]:
    """(v, w, e) of a d-regular bipartite graph with n vertices per class."""
    return n, n, n * d


# Each construct kind: its builder, the flags it requires, passed to the
# builder in this order and named in the summary label, and the member's
# (v, w, e) as a function of those flags, checked before anything is built.
# expand has none: _load_uncoloured limits its n, and its edges come from a
# file already in memory.
_CONSTRUCT_KINDS = {
    "grid": (
        constructions.grid_incidence,
        ("t",),
        lambda t: ((t + 1) ** 2, 2 * (t + 1), 2 * (t + 1) ** 2),
    ),
    "pg2": (constructions.pg2_incidence, ("q",), lambda q: _regular(q * q + q + 1, q + 1)),
    "wq": (constructions.wq_incidence, ("q",), lambda q: _regular((q + 1) * (q * q + 1), q + 1)),
    "complete": (constructions.complete_bipartite, ("a", "b"), lambda a, b: (a, b, a * b)),
    "expand": (lambda path: constructions.expand(_load_uncoloured(path)), ("input",), None),
    "unbalanced6": (
        constructions.unbalanced6,
        ("v", "w"),
        lambda v, w: (v, w, v * (v - 1) // 2 + w),
    ),
    "unbalanced8": (constructions.unbalanced8, ("v", "w"), lambda v, w: (v, w, v * v // 4 + w)),
}


def _cmd_construct(args, parser) -> int:
    build, flags, size = _CONSTRUCT_KINDS[args.kind]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        parser.error(f"{args.kind} requires " + " and ".join(f"--{flag}" for flag in flags))
    label = " ".join([args.kind] + [f"{flag}={value}" for flag, value in zip(flags, values)])
    if size is not None:
        v, w, e = size(*values)
        limit = graphcore.MAX_JSON_CLASS_SIZE
        if max(v, w, e) > limit:
            print(f"error: {label} has v={v} w={w} e={e}, over the limit {limit}", file=sys.stderr)
            return 2
    try:
        g = build(*values)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.out, "w") as fh:
            json.dump(graphcore.to_json(g), fh)
            fh.write("\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = graphcore.girth(g)
    girth_str = "acyclic" if rep.girth is None else str(rep.girth)
    print(f"{label}: v={g.v} w={g.w} e={g.e} girth={girth_str}")
    print(f"wrote {args.out}")
    return 0


def _add_verify_parser(sub) -> None:
    p = sub.add_parser("verify", help="analyse a Graph JSON file and check expectations")
    p.add_argument("path")
    p.add_argument("--expect-girth", type=int, dest="expect_girth")
    p.add_argument("--check-equality", action="store_true", dest="check_equality")
    p.set_defaults(func=_cmd_verify)


def _degree_summary(degs) -> str:
    if not degs:
        return "min=- max=-"
    return f"min={min(degs)} max={max(degs)}"


def _cmd_verify(args, parser) -> int:
    try:
        with open(args.path) as fh:
            obj = json.load(fh)
        g = graphcore.from_json(obj)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = graphcore.girth(g)
    girth_str = "acyclic" if rep.girth is None else str(rep.girth)
    flag = lambda b: "yes" if b else "no"
    print(f"graph: v={g.v} w={g.w} e={g.e}")
    print(
        f"degrees: V {_degree_summary(g.degrees_v())}, W {_degree_summary(g.degrees_w())}"
    )
    print(f"girth: {girth_str} (c4={flag(rep.has_c4)}, c6={flag(rep.has_c6)})")
    a, b = min(g.v, g.w), max(g.v, g.w)
    o_val = bounds.eval_reiman(a, b, g.e)
    p_val = bounds.eval_cubic(g.v, g.w, g.e)
    print(f"O({a},{b},{g.e}) = {o_val}")
    print(f"P({g.v},{g.w},{g.e}) = {p_val}")
    formula = graphcore.count_paths3(g)
    if g.v + g.w <= 40:
        enum = str(graphcore.count_paths3_enumerate(g))
    else:
        enum = "skipped"
    print(f"paths3: formula={formula} enumeration={enum}")
    failed = False
    if args.check_equality:
        is_gq = graphcore.verify_weak_gq(g)
        print(f"weak-gq: {'true' if is_gq else 'false'}")
        ok = is_gq and p_val == 0
        print(f"check equality (weak-gq and P == 0): {'pass' if ok else 'FAIL'}")
        failed |= not ok
    if args.expect_girth is not None:
        ok = rep.girth == args.expect_girth
        print(f"check girth == {args.expect_girth}: {'pass' if ok else 'FAIL'}")
        failed |= not ok
    return 1 if failed else 0


def _add_search_parser(sub) -> None:
    p = sub.add_parser("search", help="exhaustive maximum-size search with witness")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--girth", type=int, choices=(6, 8), default=8)
    p.add_argument("--nodes", type=int, default=search.DEFAULT_MAX_NODES)
    p.add_argument("--timeout", type=float, default=search.DEFAULT_MAX_SECONDS)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_search)


def _cmd_search(args, parser) -> int:
    if args.v < 1 or args.w < 1:
        parser.error("--v and --w must be >= 1")
    if args.nodes < 1 or not args.timeout > 0 or args.threads < 1:
        parser.error("--nodes, --timeout and --threads must be positive")
    cert = search.max_size(
        args.v,
        args.w,
        args.girth,
        max_nodes=args.nodes,
        max_seconds=args.timeout,
        threads=args.threads,
    )
    payload = {
        "v": cert.v,
        "w": cert.w,
        "min_girth": cert.min_girth,
        "e_max": cert.e_max,
        "exhaustive": cert.exhaustive,
        "nodes_explored": cert.nodes_explored,
        "elapsed": cert.elapsed,
        "witness": graphcore.to_json(cert.witness),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _add_table_parser(sub) -> None:
    p = sub.add_parser("table", help="bound table over (v, w) ranges")
    p.add_argument("--v-range", required=True, dest="v_range", help="inclusive a:b")
    p.add_argument("--w-range", required=True, dest="w_range", help="inclusive a:b")
    p.add_argument("--girth", type=int, choices=(6, 8), default=8)
    p.add_argument("--with-search", action="store_true", dest="with_search")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.set_defaults(func=_cmd_table)


def _parse_range(text: str, parser) -> range:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        parser.error(f"range {text!r} is not of the form a:b")
    if lo < 1 or hi < lo:
        parser.error(f"range {text!r} must satisfy 1 <= a <= b")
    return range(lo, hi + 1)


def _cmd_table(args, parser) -> int:
    v_range = _parse_range(args.v_range, parser)
    w_range = _parse_range(args.w_range, parser)
    columns = ("v", "w", "girth", "reiman", "cubic", "cap", "coarse", "search", "gap")
    rows = []
    for v in v_range:
        for w in w_range:
            report = bounds.bound_report(v, w, args.girth)
            row: dict[str, object] = {
                "v": v,
                "w": w,
                "girth": args.girth,
                "reiman": report.values.get("reiman"),
                "cubic": report.values.get("cubic"),
                "cap": report.values.get("cap"),
                "coarse": report.values.get("coarse"),
                "search": None,
                "gap": None,
            }
            if args.with_search:
                cert = search.max_size(v, w, args.girth)
                if cert.exhaustive:
                    row["search"] = cert.e_max
                    row["gap"] = report.binding_value - cert.e_max
            rows.append(row)
    if args.fmt == "csv":
        print(",".join(columns))
        for row in rows:
            cells = ["" if row[c] is None else str(row[c]) for c in columns]
            print(",".join(cells))
    else:
        payload = []
        for row in rows:
            obj = dict(row)
            for name in ("reiman", "cubic", "cap", "coarse"):
                if obj[name] is not None:
                    obj[name] = str(obj[name])
            payload.append(obj)
        print(json.dumps(payload, sort_keys=True))
    return 0


def _add_awm_parser(sub) -> None:
    p = sub.add_parser("awm", help="check the mean inequality on a matrix file")
    p.add_argument("path", help='matrix JSON: {"rows": [[entries]]}')
    p.add_argument("--rho", required=True, help='nonnegative rational, e.g. "4" or "3/2"')
    p.add_argument("--gamma", required=True, help='nonnegative rational, e.g. "5" or "1/2"')
    p.set_defaults(func=_cmd_awm)


def _cmd_awm(args, parser) -> int:
    try:
        rho = Fraction(args.rho)
        gamma = Fraction(args.gamma)
    except (ValueError, ZeroDivisionError):
        parser.error("--rho and --gamma must be rationals like 4 or 3/2")
    try:
        with open(args.path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict) or "rows" not in obj:
            raise ValueError('matrix JSON needs a "rows" field')
        m = meanineq.NonnegMatrix(obj["rows"])
        verdict = meanineq.check(m, rho, gamma)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    flag = lambda b: "true" if b else "false"
    print(f"matrix: {m.v}x{m.w} e={m.total}")
    print(f"rho={rho} gamma={gamma}")
    print(f"phi = {verdict.phi}")
    print(f"rhs = {verdict.rhs}")
    print(f"hypotheses (rows >= 2*rho, cols >= 2*gamma): {flag(verdict.hypotheses_hold)}")
    print(f"satisfied: {flag(verdict.satisfied)}")
    print(f"equality: {flag(verdict.equality)}")
    return 0 if verdict.satisfied else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthbound",
        description="Size bounds, extremal constructions, and exhaustive search "
        "for bipartite graphs of girth 6 and 8.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_bound_parser(sub)
    _add_construct_parser(sub)
    _add_verify_parser(sub)
    _add_search_parser(sub)
    _add_table_parser(sub)
    _add_awm_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
