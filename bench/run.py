"""girthbound benchmark: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src`` and is not installed.  A run times the workload's set-up (import,
seeded inputs, input files, warm-up) in a fresh process five times and
again before every pass, and reports the median as ``setup_s``, scaled to
a reference speed of the host (below).  It
computes the correctness references, then runs whole passes
over the workload's operations, single process and closed loop, until the
next pass would end after ``--seconds``.  Every operation's outputs are
checked; an operation counts as failed when any check fails.

The machine this runs on is shared, and its speed drifts by a quarter over
minutes.  So a fixed pure-Python loop (``core.calibrate``) is timed just
before and just after every operation, and ``pass_norm`` reports the pass
in units of that loop: each operation's seconds divided by the median of
the calibration times of it and its two neighbours on either side, the
median of that per operation kind, summed over the kinds.  Each set-up
is divided in the same way by the calibration time measured in its own
process and multiplied by ``CAL_REF_S``.  The raw seconds are printed next
to both and kept in the record.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics listed in BENCHMARK.json; with ``--trace 1`` passes
alternate between untraced and traced, and it holds the per-layer metrics,
taken from the traced passes, plus the tracing overhead against the
untraced ones.  Lines before it are a human-readable summary.  The
environment, per-operation samples and (traced) spans are written to
``.bench_out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = str(ROOT / "src")
sys.path.insert(0, str(BENCH_DIR))

from clipipe import CliPipeline  # noqa: E402
from core import Outcome, calibrate  # noqa: E402
from geometry import GeometryAnalytics  # noqa: E402
from ladder import SearchLadder  # noqa: E402
from tracing import NullTracer, Tracer, aggregate, to_records  # noqa: E402

WORKLOADS = {wl.name: wl for wl in (SearchLadder, GeometryAnalytics, CliPipeline)}
SETUPS = 5  # before the passes; one more is made before each pass
# setup_s is given in seconds at the speed where core.calibrate takes this
# long (about its time on a 2-vCPU x86-64 VM under Python 3.11).
CAL_REF_S = 0.009
PACKAGE_MODULES = ("bounds", "graphcore", "constructions", "meanineq", "search")
LAYERS = ("bench",) + PACKAGE_MODULES + ("cli",)


@dataclass
class Pass:
    traced: bool
    results: list[tuple[str, Outcome]]
    cals: list[tuple[float, float]]  # calibration seconds before and after each op
    tracer: object


def import_package() -> SimpleNamespace:
    """Import the package from ``src``, afresh."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "girthbound" or m.startswith("girthbound.")]:
        del sys.modules[name]
    importlib.import_module("girthbound")
    return SimpleNamespace(**{m: importlib.import_module(f"girthbound.{m}") for m in PACKAGE_MODULES})


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_setup(workload: str, seed: int, scratch: Path) -> tuple[float, float]:
    """Seconds to set the workload up in a fresh process, which pays the
    first import as a user does, and the calibration time measured in that
    process around it.  The run's own state is left alone."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(scratch)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
    seconds, cal = map(float, out.split())
    return seconds, cal


def timed_calibration() -> float:
    t = time.perf_counter()
    calibrate()
    return time.perf_counter() - t


def run_pass(wl, index: int, traced: bool) -> Pass:
    tr = Tracer() if traced else NullTracer()
    p = Pass(traced, [], [], tr)
    for op in wl.ops(index):
        gc.collect()
        out = Outcome()
        before = timed_calibration()
        with tr.op(op.kind):
            try:
                op.run(tr, out)
            except Exception as exc:  # a crashing operation is a failed one
                out.problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        p.results.append((op.kind, out))
        p.cals.append((before, timed_calibration()))
    return p


def measure(wl, seconds: float, trace: bool, before_pass) -> list[Pass]:
    """Whole passes until the next one would end after ``seconds``; calls
    ``before_pass()`` ahead of each.

    Traced runs alternate untraced and traced passes and make at least one
    of each.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        before_pass()
        t = time.perf_counter()
        passes.append(run_pass(wl, len(passes), trace and len(passes) % 2 == 1))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds and (not trace or len(passes) >= 2):
            return passes


def op_medians(passes: list[Pass]) -> dict[str, float]:
    samples = defaultdict(list)
    for p in passes:
        for kind, out in p.results:
            samples[kind].append(out.seconds)
    return {kind: median(vals) for kind, vals in samples.items()}


def norm_medians(passes: list[Pass], traced: bool) -> dict[str, float]:
    """Per op kind, the median of its seconds over the local calibration
    time, over the passes whose ``traced`` flag matches."""
    flat = [(p.traced, kind, out.seconds) for p in passes for kind, out in p.results]
    cals = [c for p in passes for pair in p.cals for c in pair]
    samples = defaultdict(list)
    for i, (was_traced, kind, seconds) in enumerate(flat):
        if was_traced == traced:
            samples[kind].append(seconds / median(cals[max(0, 2 * i - 4): 2 * i + 6]))
    return {kind: median(vals) for kind, vals in samples.items()}


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> dict[str, float]:
    return {
        "setup_s": CAL_REF_S * median(seconds / cal for seconds, cal in setup),
        "pass_norm": sum(norm_medians(passes, traced=False).values()),
    }


def layer_values(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    agg = aggregate(p.tracer.spans)
    counts: dict[str, float] = defaultdict(float)
    for _, out in p.results:
        for key, val in out.counts.items():
            counts[key] += val
    values = {
        "trace.pass_s": sum(out.seconds for _, out in p.results),
        "trace.cal_s": median([c for pair in p.cals for c in pair]),
        "search.nodes": counts["nodes"],
        "search.nodes_per_s": counts["nodes"] / counts["search_s"] if counts["search_s"] else 0.0,
        "search.speedup_2w": counts["speedup_2w"],
        "cli.startup_s": counts["startup_s"],
        "analytics.meanineq_checks_per_s": counts["checks"] / counts["checks_s"] if counts["checks_s"] else 0.0,
        "analytics.bound_cells_per_s": counts["cells"] / counts["cells_s"] if counts["cells_s"] else 0.0,
    }
    for layer in LAYERS:
        values[f"{layer}.s"] = agg.get(f"layer:{layer}", {}).get("self_s", 0.0)
    for name, row in agg.items():
        if not name.startswith(("layer:", "bench.")):
            values[f"{name}.s"] = row["self_s"]
    report = agg.get("bounds.bound_report")
    if report:
        values["bounds.bound_report.us_per_cell"] = 1e6 * report["total_s"] / report["items"]
    for key, val in counts.items():
        kind, sep, name = key.partition(":")
        if sep:
            values[f"{name}.{kind}"] = val
    return values


def per_layer(passes: list[Pass]) -> dict[str, float]:
    per_pass = [layer_values(p) for p in passes if p.traced]
    names = set().union(*per_pass)
    values = {name: median([pv.get(name, 0.0) for pv in per_pass]) for name in names}
    base = sum(norm_medians(passes, traced=False).values())
    values["trace.overhead_pct"] = 100 * (sum(norm_medians(passes, traced=True).values()) - base) / base
    return values


def spec_metrics(spec: list[dict], values: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order; a listed metric the
    workload does not exercise reads 0."""
    listed = {m["name"] for m in spec}
    unknown = sorted(set(values) - listed)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (Path(SRC) / "girthbound" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no girthbound sources under {SRC} (run from a checkout)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    out_dir = ROOT / ".bench_out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, ROOT, scratch)
    try:
        # Set-up samples are spread over the run: the host's speed changes
        # from one phase of several seconds to the next.
        setup: list[tuple[float, float]] = []

        def sample_setup() -> None:
            setup.append(child_setup(args.workload, args.seed, scratch / "setup"))

        for _ in range(SETUPS):
            sample_setup()
        wl.setup(import_package())
        wl.reference()
        passes = measure(wl, args.seconds, bool(args.trace), sample_setup)
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)

    results = [out for p in passes for _, out in p.results]
    problems = [msg for out in results for msg in out.problems]
    failed = sum(1 for out in results if out.problems)
    if args.trace:
        metrics = spec_metrics(spec["per_layer"], per_layer(passes))
    else:
        metrics = spec_metrics(spec["end_to_end"], end_to_end(passes, setup))
    plain = op_medians([p for p in passes if not p.traced])
    headline = {
        "setup_s (raw)": (median(sec for sec, _ in setup), "s"),
        "pass_s (raw)": (sum(plain.values()), "s"),
        **wl.headline(plain, passes),
    }

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup": [{"seconds": sec, "cal_s": cal} for sec, cal in setup],
        "passes": [
            {
                "traced": p.traced,
                "ops": [
                    {"kind": k, "seconds": o.seconds, "cal_s": cal, "counts": o.counts, "problems": o.problems}
                    for (k, o), cal in zip(p.results, p.cals)
                ],
            }
            for p in passes
        ],
        "headline": headline,
        "metrics": metrics,
    }
    traced = [p for p in passes if p.traced]
    if traced:
        record["layers"] = [aggregate(p.tracer.spans) for p in traced]
        origin = traced[0].tracer.spans[0].start
        record["spans"] = [to_records(p.tracer.spans, origin) for p in traced]
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} passes={len(passes)} ops={len(results)} ops_failed={failed}")
    for msg in problems[:20]:
        print(f"FAILED: {msg}")
    for name, (value, unit) in headline.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
