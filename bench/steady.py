"""Run the benchmark on several seeds and report how steady each metric is.

    python3 bench/steady.py --workload <name> --seeds 1-10

For every metric it prints the median over the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  Each run measures ``run_seconds`` from BENCHMARK.json
with tracing off; runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:6]), flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "-"
        bound = bounds.get(name)
        print(f"{name:42s} median {med:14.6g}  spread {spread:>8s}  bound {bound if bound is not None else '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
