"""cli-pipeline: a closed loop of CLI processes, one at a time.

Each operation is one ``python -m girthbound.cli ...`` process, timed from
start to exit, as a CI job would run them: bound queries, constructions,
verification (passing, failing and IO error), the mean inequality on a
passing and a failing matrix, a bound-only table over a large range, a
table with a small search in every cell, and ``search --threads 2``.
Every exit code is checked against the documented contract (0 pass,
1 mathematical failure, 2 usage or IO error) and every output against an
in-process reference computed before the timed passes.

The seed picks the ``bound`` queries and writes the input files (the graph
to expand and the passing matrix) into a directory under ``.bench_out``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from statistics import median

from core import Op, Outcome, probe, tail
from geometry import random_matrix, random_simple_graph, random_fraction
from ladder import check_certificate

TABLE_RANGE = (1, 80)  # bound-only table, girth 8
TABLE_SEARCH_RANGE = (3, 6)  # table --with-search, girth 8
# search --threads 2.  Two workers depend on a second core that the host
# shares, so their time swings by half from run to run; at about 0.35 s
# this search does not swamp the other commands' figures.
SEARCH_INSTANCE = (8, 5, 8)
SEARCH_E_MAX = 14
PROCESS_TIMEOUT = 120


class CliPipeline:
    name = "cli-pipeline"

    def __init__(self, seed: int, root, scratch) -> None:
        self.seed = seed
        self.scratch = scratch / "cli"
        self.env = dict(os.environ)
        paths = [str(root / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def setup(self, pkg) -> None:
        self.pkg = pkg
        rng = random.Random(self.seed)
        self.bound_queries = [(rng.randint(5, 200), rng.randint(5, 200), g) for g in (8, 6)]
        v, w = rng.randint(3, 5), rng.randint(3, 5)
        rows = random_matrix(rng, v, w)
        m = pkg.meanineq.NonnegMatrix(rows)
        rho = random_fraction(rng, min(m.row_sums) / 2)
        gamma = random_fraction(rng, min(m.col_sums) / 2)
        self.awm_pass = (rows, str(rho), str(gamma))
        self.expand_input = (10, random_simple_graph(rng, 10, 15))
        if self.scratch.exists():
            shutil.rmtree(self.scratch)
        self.scratch.mkdir(parents=True)
        self._write("expand-in.json", {"n": self.expand_input[0], "edges": self.expand_input[1]})
        self._write("awm-pass.json", {"rows": rows})
        self._write("awm-fail.json", {"rows": [[2, 5], [4, 0]]})
        self._import_cli()  # warm-up

    def _import_cli(self) -> float:
        """Seconds for a process that only imports the CLI: the floor under
        every command."""
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import girthbound.cli"], env=self.env, capture_output=True,
            timeout=PROCESS_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import girthbound.cli: {proc.stderr.decode()[-500:]}")
        return time.perf_counter() - t

    def _path(self, name: str) -> str:
        return str(self.scratch / name)

    def _write(self, name: str, obj) -> None:
        with open(self._path(name), "w") as fh:
            json.dump(obj, fh)

    def reference(self) -> None:
        """In-process results every CLI output is compared with (untimed)."""
        pkg = self.pkg
        c, b = pkg.constructions, pkg.bounds
        self.startup = min(self._import_cli() for _ in range(5))
        n, pairs = self.expand_input
        self.ref_graphs = {
            "wq.json": c.wq_incidence(3),
            "pg2.json": c.pg2_incidence(5),
            "grid.json": c.grid_incidence(3),
            "expand.json": c.expand(pkg.graphcore.Graph(n, pairs)),
        }
        lo, hi = TABLE_RANGE
        self.ref_table = {
            (v, w): b.bound_report(v, w, 8) for v in range(lo, hi + 1) for w in range(lo, hi + 1)
        }
        lo, hi = TABLE_SEARCH_RANGE
        self.ref_table_search = {}
        for v in range(lo, hi + 1):
            for w in range(lo, hi + 1):
                cert = pkg.search.max_size(v, w, 8)
                self.ref_table_search[(v, w)] = (cert.e_max, b.bound_report(v, w, 8).binding_value - cert.e_max)
        v, w, g = SEARCH_INSTANCE
        t = time.perf_counter()
        cert = pkg.search.max_size(v, w, g, threads=1)
        self.ref_search_s = time.perf_counter() - t
        self.ref_search = self._cert_payload(cert)

    def _cert_payload(self, cert) -> dict:
        return {
            "v": cert.v,
            "w": cert.w,
            "min_girth": cert.min_girth,
            "e_max": cert.e_max,
            "exhaustive": cert.exhaustive,
            "nodes_explored": cert.nodes_explored,
            "witness": self.pkg.graphcore.to_json(cert.witness),
        }

    def ops(self, pass_index: int) -> list[Op]:
        p = self._path
        rows, rho, gamma = self.awm_pass
        (v8, w8, _), (v6, w6, _) = self.bound_queries
        lo, hi = TABLE_RANGE
        slo, shi = TABLE_SEARCH_RANGE
        sv, sw, sg = SEARCH_INSTANCE
        commands = [
            ("bound.g8", ["bound", "--v", v8, "--w", w8, "--girth", 8, "--json"], 0, self._bound_json(v8, w8, 8)),
            ("bound.g6", ["bound", "--v", v6, "--w", w6, "--girth", 6, "--json"], 0, self._bound_json(v6, w6, 6)),
            ("bound.usage", ["bound", "--v", 0, "--w", 3], 2, None),
            ("construct.wq", ["construct", "wq", "--q", 3, "--out", p("wq.json")], 0, self._graph_file("wq.json")),
            ("construct.pg2", ["construct", "pg2", "--q", 5, "--out", p("pg2.json")], 0, self._graph_file("pg2.json")),
            ("construct.grid", ["construct", "grid", "--t", 3, "--out", p("grid.json")], 0, self._graph_file("grid.json")),
            ("construct.expand", ["construct", "expand", "--input", p("expand-in.json"), "--out", p("expand.json")], 0, self._graph_file("expand.json")),
            ("verify.wq", ["verify", p("wq.json"), "--expect-girth", 8, "--check-equality"], 0, None),
            ("verify.grid", ["verify", p("grid.json"), "--expect-girth", 8, "--check-equality"], 0, None),
            ("verify.pg2", ["verify", p("pg2.json"), "--expect-girth", 6], 0, None),
            ("verify.pg2_not_gq", ["verify", p("pg2.json"), "--check-equality"], 1, None),
            ("verify.missing", ["verify", p("missing.json")], 2, None),
            ("awm.pass", ["awm", p("awm-pass.json"), "--rho", rho, "--gamma", gamma], 0, None),
            ("awm.fail", ["awm", p("awm-fail.json"), "--rho", 4, "--gamma", 5], 1, None),
            ("table.bounds", ["table", "--v-range", f"{lo}:{hi}", "--w-range", f"{lo}:{hi}", "--girth", 8, "--format", "json"], 0, self._table),
            ("table.search", ["table", "--v-range", f"{slo}:{shi}", "--w-range", f"{slo}:{shi}", "--girth", 8, "--with-search", "--format", "json"], 0, self._table_search),
            ("search.threads2", ["search", "--v", sv, "--w", sw, "--girth", sg, "--threads", 2], 0, self._search),
        ]
        return [Op(kind, self._command(kind, [str(a) for a in argv], code, check)) for kind, argv, code, check in commands]

    def _command(self, kind, argv, code, check):
        sub = argv[0]

        def run(tr, out: Outcome) -> None:
            t = time.perf_counter()
            with tr.span(f"cli.{sub}"):
                proc = subprocess.run(
                    [sys.executable, "-m", "girthbound.cli", *argv],
                    env=self.env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT,
                )
            out.seconds = time.perf_counter() - t
            out.check(proc.returncode == code, f"{kind}: exit {proc.returncode}, expected {code}")
            out.check("Traceback" not in proc.stderr, f"{kind}: traceback on stderr")
            if check is not None and proc.returncode == 0:
                check(tr, out, proc.stdout)

        return run

    def _bound_json(self, v, w, girth):
        def check(tr, out: Outcome, stdout: str) -> None:
            got = json.loads(stdout)
            rep = probe(tr, "bounds.bound_report", self.pkg.bounds.bound_report, v, w, girth)
            want = {name: str(val) for name, val in rep.values.items()}
            ok = got["values"] == want and got["binding"] == rep.binding
            out.check(ok, f"bound {v} {w} {girth}: {got} != {want}")

        return check

    def _graph_file(self, name):
        def check(tr, out: Outcome, stdout: str) -> None:
            with open(self._path(name)) as fh:
                obj = json.load(fh)
            g = probe(tr, "graphcore.from_json", self.pkg.graphcore.from_json, obj)
            out.check(g == self.ref_graphs[name], f"construct {name}: graph differs from the library's")

        return check

    def _table(self, tr, out: Outcome, stdout: str) -> None:
        rows = json.loads(stdout)
        bad = len(rows) != len(self.ref_table)
        for row in rows:
            rep = self.ref_table.get((row["v"], row["w"]))
            bad += rep is None or any(
                row[name] != (None if rep.values.get(name) is None else str(rep.values[name]))
                for name in ("reiman", "cubic", "cap", "coarse")
            )
        out.check(bad == 0, f"table: {bad} rows differ from bound_report")

    def _table_search(self, tr, out: Outcome, stdout: str) -> None:
        rows = json.loads(stdout)
        got = {(row["v"], row["w"]): (row["search"], row["gap"]) for row in rows}
        out.check(got == self.ref_table_search, "table --with-search: cells differ from max_size")

    def _search(self, tr, out: Outcome, stdout: str) -> None:
        payload = json.loads(stdout)
        elapsed = payload.pop("elapsed")
        out.counts.update({"nodes": payload["nodes_explored"], "search_s": elapsed})
        out.counts["speedup_2w"] = self.ref_search_s / out.seconds
        out.counts["startup_s"] = self.startup
        out.check(payload == self.ref_search, "search --threads 2: certificate differs from 1 thread")
        witness = probe(tr, "graphcore.from_json", self.pkg.graphcore.from_json, payload["witness"])
        cert = self.pkg.search.SearchCertificate(**{**payload, "witness": witness, "elapsed": elapsed})
        check_certificate(self.pkg, tr, out, cert, *SEARCH_INSTANCE, SEARCH_E_MAX)

    def headline(self, meds: dict[str, float], passes) -> dict[str, tuple[float, str]]:
        """Per-command latency of the non-search commands (median and tail),
        and the seconds of the two commands that search."""
        searching = ("search.threads2", "table.search")
        samples = [
            out.seconds for p in passes if not p.traced for kind, out in p.results if kind not in searching
        ]
        lines = {"cli.cmd_p50_s": (median(samples), "s")}
        high = tail(samples)
        if high is not None:
            lines[f"cli.cmd_tail_s (p{high[1]:.0f} of {len(samples)})"] = (high[0], "s")
        lines["cli.search_threads2_s"] = (meds["search.threads2"], "s")
        lines["cli.table_search_s"] = (meds["table.search"], "s")
        lines["cli.startup_s (floor)"] = (self.startup, "s")
        lines["search.speedup_2w"] = (self.ref_search_s / meds["search.threads2"], "x")
        return lines

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

