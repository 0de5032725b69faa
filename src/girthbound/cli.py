"""Command-line surface: bounds, constructions, verification, search, tables.

Exit codes: 0 = all checks pass, 1 = a mathematical expectation failed,
2 = usage or IO error.  argparse owns the shape of the command line and
exits 2 with its usage message (``--rho`` and ``--gamma`` have the type
:func:`rational`, a wrapper that imports meanineq.rational when a value is
parsed); the library decides which values are valid (``bound --v 0`` and
``search --timeout nan`` are its to refuse) and raises ValueError;
:func:`main` turns any OSError or ValueError, a closed stdout included,
into one ``error:`` line and exit 2, keeping the first and last 100
characters of a longer message.  Output is deterministic given the flags
(search certificates additionally given budgets), so stdout can be pinned
in golden tests; JSON bound values are decimal strings, which sidesteps
64-bit consumers.  ``table`` streams: each csv row, and each v's part of
the JSON array, is written as soon as it is computed.

Building the parser imports no package module: each ``_cmd_*`` imports the
modules its command runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _add_bound_parser(sub) -> None:
    p = sub.add_parser("bound", help="evaluate size bounds for (v, w) at a girth floor")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--girth", type=int, choices=(6, 8), default=8)
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=_cmd_bound)


def _cmd_bound(args, parser) -> int:
    from . import bounds

    report = bounds.bound_report(args.v, args.w, args.girth)
    if args.as_json:
        payload = {
            "v": args.v,
            "w": args.w,
            "girth": args.girth,
            "values": {name: str(val) for name, val in report.values.items()},
            "binding": report.binding,
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"v={args.v} w={args.w} girth={args.girth}")
    for name, val in report.values.items():  # filled in METHOD_ORDER
        print(f"{name}: {val}" + (" (binding)" if name == report.binding else ""))
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


def _read_json(path: str):
    """The parsed JSON file at path; nesting too deep to parse is a ValueError."""
    with open(path, "rb") as fh:  # as bytes: json, not the locale, picks the codec
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _load_uncoloured(path: str):
    """The uncoloured graphcore.Graph in the JSON file at path."""
    from . import graphcore

    obj = _read_json(path)
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('uncoloured graph JSON needs fields "n" and "edges"')
    n, limit = obj["n"], graphcore.MAX_JSON_CLASS_SIZE
    if not isinstance(n, int) or isinstance(n, bool) or n > limit:
        raise ValueError(
            f"uncoloured graph JSON field 'n' must be an integer <= {limit}, got {n!r}"
        )
    return graphcore.Graph(n, graphcore.pairs_from_json(obj["edges"]))


def _regular(n: int, d: int) -> tuple[int, int, int]:
    """(v, w, e) of a d-regular bipartite graph with n vertices per class."""
    return n, n, n * d


# Each construct kind: the name of its builder in constructions, the flags
# it requires, passed to the builder in this order and named in the summary
# label, and the member's (v, w, e) as a function of the builder's
# arguments, checked before anything is built.  expand's one flag is the
# path of the graph to expand, which _load_uncoloured reads and limits in
# n; its size is that of the graph read.
_CONSTRUCT_KINDS = {
    "grid": (
        "grid_incidence",
        ("t",),
        lambda t: ((t + 1) ** 2, 2 * (t + 1), 2 * (t + 1) ** 2),
    ),
    "pg2": ("pg2_incidence", ("q",), lambda q: _regular(q * q + q + 1, q + 1)),
    "wq": ("wq_incidence", ("q",), lambda q: _regular((q + 1) * (q * q + 1), q + 1)),
    "complete": ("complete_bipartite", ("a", "b"), lambda a, b: (a, b, a * b)),
    "expand": ("expand", ("input",), lambda g: (g.n, g.e, 2 * g.e)),
    "unbalanced6": ("unbalanced6", ("v", "w"), lambda v, w: (v, w, v * (v - 1) // 2 + w)),
    "unbalanced8": ("unbalanced8", ("v", "w"), lambda v, w: (v, w, v * v // 4 + w)),
}


def _cmd_construct(args, parser) -> int:
    from . import constructions, graphcore

    builder, flags, size = _CONSTRUCT_KINDS[args.kind]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        parser.error(f"{args.kind} requires " + " and ".join(f"--{flag}" for flag in flags))
    label = " ".join([args.kind] + [f"{flag}={value}" for flag, value in zip(flags, values)])
    if args.kind == "expand":
        values = [_load_uncoloured(*values)]
    v, w, e = size(*values)
    limit = graphcore.MAX_JSON_CLASS_SIZE
    if max(v, w, e) > limit:
        raise ValueError(f"{label} has v={v} w={w} e={e}, over the limit {limit}")
    g = getattr(constructions, builder)(*values)
    with open(args.out, "w") as fh:
        json.dump(graphcore.to_json(g), fh)
        fh.write("\n")
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
    from . import bounds, graphcore

    g = graphcore.from_json(_read_json(args.path))
    rep = graphcore.girth(g)
    girth_str = "acyclic" if rep.girth is None else str(rep.girth)
    print(f"graph: v={g.v} w={g.w} e={g.e}")
    print(
        f"degrees: V {_degree_summary(g.degrees_v())}, W {_degree_summary(g.degrees_w())}"
    )
    print(f"girth: {girth_str}")
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
    # Unset budgets are not passed on, so max_size's defaults apply.
    p.add_argument("--nodes", type=int)
    p.add_argument("--timeout", type=float)
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility (must be >= 1); starts no worker",
    )
    p.set_defaults(func=_cmd_search)


def _cmd_search(args, parser) -> int:
    from . import graphcore, search

    budgets = {"max_nodes": args.nodes, "max_seconds": args.timeout}
    cert = search.max_size(
        args.v,
        args.w,
        args.girth,
        threads=args.threads,
        **{name: value for name, value in budgets.items() if value is not None},
    )
    payload = {**cert._asdict(), "witness": graphcore.to_json(cert.witness)}
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
    from . import bounds

    if args.with_search:
        from . import search

    v_range = _parse_range(args.v_range, parser)
    w_range = _parse_range(args.w_range, parser)
    columns = ("v", "w", "girth", *bounds.METHOD_ORDER, "search", "gap")
    csv = args.fmt == "csv"
    if csv:
        print(",".join(columns))
    sep = "["
    for v in v_range:
        rows = []
        for w in w_range:
            report = bounds.bound_report(v, w, args.girth)
            row: dict[str, object] = dict.fromkeys(columns)
            row.update(v=v, w=w, girth=args.girth)
            row.update((name, str(value)) for name, value in report.values.items())
            if args.with_search:
                cert = search.max_size(v, w, args.girth)
                if cert.exhaustive:
                    row["search"] = cert.e_max
                    row["gap"] = report.binding_value - cert.e_max
            if csv:
                print(",".join("" if row[c] is None else str(row[c]) for c in columns))
            rows.append(row)
        if not csv:  # this v's rows, as the inside of a JSON array
            print(sep + json.dumps(rows, sort_keys=True)[1:-1], end="")
            sep = ", "
    if not csv:
        print("]")
    return 0


def rational(text: str):
    """meanineq.rational, imported on first use.  argparse names the type
    function in its usage error ("invalid rational value"), hence the name."""
    from . import meanineq

    return meanineq.rational(text)


def _add_awm_parser(sub) -> None:
    p = sub.add_parser("awm", help="check the mean inequality on a matrix file")
    p.add_argument("path", help='matrix JSON: {"rows": [[entries]]}')
    p.add_argument(
        "--rho", type=rational, required=True, help="nonnegative rational p or p/q"
    )
    p.add_argument(
        "--gamma", type=rational, required=True, help="nonnegative rational p or p/q"
    )
    p.set_defaults(func=_cmd_awm)


def _cmd_awm(args, parser) -> int:
    from . import meanineq

    obj = _read_json(args.path)
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError('matrix JSON needs a "rows" field')
    m = meanineq.NonnegMatrix(obj["rows"])
    verdict = meanineq.check(m, args.rho, args.gamma)
    flag = lambda b: "true" if b else "false"
    print(f"matrix: {m.v}x{m.w} e={m.total}")
    print(f"rho={args.rho} gamma={args.gamma}")
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
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a reader that left early fails here, not at exit
    except (OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError):  # the flush at exit goes to /dev/null
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        message = str(exc)
        if len(message) > 200:  # the library quotes an offending value in full
            message = f"{message[:100]}...{message[-100:]}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
