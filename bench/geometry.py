"""geometry-analytics: build and certify every extremal family, no search.

Operations:

- one per family member: PG(2, q) for q in 2, 3, 5, 7, 11, 13; W(q) for
  q in 2, 3, 5, 7; the grids for t = 1..4; the unbalanced girth-6/girth-8
  families; and the expansion of K_4 and of a seeded random graph.  Each
  builds the graph and certifies it: rebuilt from its edges, girth, weak-GQ (GQ families), the
  contraction, paths of length 3 by formula, by enumeration (small graphs)
  and as phi(incidence matrix, 1, 1), and equality in the matching bound;
- a sweep of ``meanineq.check`` over seeded random rational matrices of
  every size 2..6 x 2..6 under the doubled hypotheses;
- the two printed counterexamples to the single-threshold hypotheses;
- a ``bound_report`` grid over v, w in 1..100, once per girth floor.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, product

from core import Op, Outcome, pass_counts, timed

PG2_Q = (2, 3, 5, 7, 11, 13)
WQ_Q = (2, 3, 5, 7)
GRID_T = (1, 2, 3, 4)
UNBALANCED = ((6, 5, 10), (6, 6, 20), (8, 6, 9), (8, 8, 20))  # (girth, v, w)
SWEEP_SIZES = tuple(product(range(2, 7), range(2, 7)))
SWEEP_PER_SIZE = 40
BOUND_GRID = 100
COUNTEREXAMPLES = (([[2, 5], [4, 0]], 4, 5), ([[0, 1, 1], [1, 0, 0], [1, 0, 0]], 1, 1))
ENUMERATE_MAX_VERTICES = 40


def random_fraction(rng: random.Random, top: Fraction) -> Fraction:
    """Uniform on a random grid of [0, top]."""
    den = rng.randint(1, 8)
    return top * Fraction(rng.randint(0, den), den)


def random_matrix(rng: random.Random, v: int, w: int) -> list[list]:
    """Entries as the matrix JSON writes them: integers and "p/q" strings."""
    rows = []
    for _ in range(v):
        row = []
        for _ in range(w):
            if rng.random() < 0.2:
                row.append(0)
            elif rng.random() < 0.5:
                row.append(rng.randint(1, 9))
            else:
                row.append(f"{rng.randint(1, 19)}/{rng.randint(1, 7)}")
        rows.append(row)
    return rows


def sweep_case(rng: random.Random, v: int, w: int) -> tuple[list[list], Fraction, Fraction]:
    """A random matrix with thresholds that satisfy the doubled hypotheses."""
    rows = random_matrix(rng, v, w)
    vals = [[Fraction(x) for x in row] for row in rows]
    row_min = min(sum(row) for row in vals)
    col_min = min(sum(col) for col in zip(*vals))
    return rows, random_fraction(rng, row_min / 2), random_fraction(rng, col_min / 2)


def random_simple_graph(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    return sorted(rng.sample(list(combinations(range(n), 2)), m))


def uncoloured_girth(n: int, pairs) -> int | None:
    """Girth of a simple graph by BFS from every vertex (independent oracle)."""
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    best = None
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for x in adj[u]:
                if dist[x] < 0:
                    dist[x] = dist[u] + 1
                    parent[x] = u
                    queue.append(x)
                elif x != parent[u]:
                    cand = dist[u] + dist[x] + 1
                    if best is None or cand < best:
                        best = cand
    return best


class GeometryAnalytics:
    name = "geometry-analytics"

    def __init__(self, seed: int, root, scratch) -> None:
        self.seed = seed

    def setup(self, pkg) -> None:
        self.pkg = pkg
        rng = random.Random(self.seed)
        self.sweep = [
            sweep_case(rng, v, w) for v, w in SWEEP_SIZES for _ in range(SWEEP_PER_SIZE)
        ]
        self.random_graph = (12, random_simple_graph(rng, 12, 20))
        # Warm-up: the smallest member of each family, certified.
        g = pkg.constructions.pg2_incidence(2)
        m = pkg.meanineq.NonnegMatrix.from_graph(g)
        if pkg.meanineq.phi(m, 1, 1) != pkg.graphcore.count_paths3(g):
            raise RuntimeError("warm-up certification failed")
        pkg.graphcore.verify_weak_gq(pkg.constructions.wq_incidence(2))

    def reference(self) -> None:
        pass

    def ops(self, pass_index: int) -> list[Op]:
        c = self.pkg.constructions
        ops = [Op(f"pg2.q{q}", self._family(c.pg2_incidence, "constructions.pg2_incidence", (q,), 6, False, "reiman")) for q in PG2_Q]
        ops += [Op(f"wq.q{q}", self._family(c.wq_incidence, "constructions.wq_incidence", (q,), 8, True, "cubic")) for q in WQ_Q]
        ops += [
            Op("grid", self._many([(c.grid_incidence, (t,), 8, True, "cubic") for t in GRID_T])),
            Op("unbalanced", self._many([
                (c.unbalanced6 if g == 6 else c.unbalanced8, (v, w), g, False, "coarse")
                for g, v, w in UNBALANCED
            ])),
            Op("expand", self._expand),
            Op("meanineq.sweep", self._sweep),
            Op("meanineq.counterexamples", self._counterexamples),
            Op("bounds.grid.g6", self._bound_grid(6)),
            Op("bounds.grid.g8", self._bound_grid(8)),
        ]
        random.Random(f"{self.seed}:{pass_index}").shuffle(ops)
        return ops

    def _family(self, build, span, args, girth, gq, equality):
        def run(tr, out: Outcome) -> None:
            g = timed(tr, out, span, build, *args)
            self._certify(tr, out, g, f"{span}{args}", girth, gq, equality)

        return run

    def _many(self, members):
        def run(tr, out: Outcome) -> None:
            for build, args, girth, gq, equality in members:
                g = timed(tr, out, "constructions.other", build, *args)
                self._certify(tr, out, g, f"{build.__name__}{args}", girth, gq, equality)

        return run

    def _certify(self, tr, out: Outcome, g, label, girth, gq, equality) -> None:
        pkg = self.pkg
        gc, b = pkg.graphcore, pkg.bounds
        again = timed(tr, out, "graphcore.from_edges", gc.from_edges, g.v, g.w, g.edges[::-1])
        out.check(again == g, f"{label}: rebuilding from reversed edges changes the graph")
        rep = timed(tr, out, "graphcore.girth", gc.girth, g)
        out.check(rep.girth == girth, f"{label}: girth {rep.girth} != {girth}")
        if gq:
            ok = timed(tr, out, "graphcore.verify_weak_gq", gc.verify_weak_gq, g)
            out.check(ok, f"{label}: not a weak generalized quadrangle")
        contracted = timed(tr, out, "graphcore.contract", gc.contract, g)
        expect = sum(d * (d - 1) // 2 for d in g.degrees_w())
        out.check(contracted.e == expect, f"{label}: contraction has {contracted.e} edges, not {expect}")
        paths = timed(tr, out, "graphcore.count_paths3", gc.count_paths3, g)
        if g.v + g.w <= ENUMERATE_MAX_VERTICES:
            enum = timed(tr, out, "graphcore.count_paths3_enumerate", gc.count_paths3_enumerate, g)
            out.check(enum == paths, f"{label}: paths3 enumeration {enum} != {paths}")
        m = timed(tr, out, "meanineq.NonnegMatrix", pkg.meanineq.NonnegMatrix.from_graph, g)
        phi = timed(tr, out, "meanineq.phi", pkg.meanineq.phi, m, 1, 1)
        out.check(phi == paths, f"{label}: phi {phi} != paths3 {paths}")
        if equality == "reiman":
            a, c = min(g.v, g.w), max(g.v, g.w)
            val = timed(tr, out, "bounds.eval", b.eval_reiman, a, c, g.e)
            out.check(val == 0, f"{label}: O = {val}, not 0")
        elif equality == "cubic":
            val = timed(tr, out, "bounds.eval", b.eval_cubic, g.v, g.w, g.e)
            out.check(val == 0, f"{label}: P = {val}, not 0")
        else:
            rep = timed(tr, out, "bounds.bound_report", b.bound_report, g.v, g.w, girth)
            out.check(g.e == rep.values["coarse"], f"{label}: e {g.e} misses the coarse bound")

    def _expand(self, tr, out: Outcome) -> None:
        pkg = self.pkg
        k4 = (4, list(combinations(range(4), 2)))
        for n, pairs in (k4, self.random_graph):
            base = pkg.graphcore.Graph(n, pairs)
            g = timed(tr, out, "constructions.other", pkg.constructions.expand, base)
            out.check(g.e == 2 * base.e and set(g.degrees_w()) <= {2}, f"expand(n={n}): wrong shape")
            half = uncoloured_girth(n, pairs)
            rep = timed(tr, out, "graphcore.girth", pkg.graphcore.girth, g)
            want = None if half is None else 2 * half
            out.check(rep.girth == want, f"expand(n={n}): girth {rep.girth} != {want}")

    def _sweep(self, tr, out: Outcome) -> None:
        mi = self.pkg.meanineq
        failed = 0
        for rows, rho, gamma in self.sweep:
            m = timed(tr, out, "meanineq.NonnegMatrix", mi.NonnegMatrix, rows)
            verdict = timed(tr, out, "meanineq.check", mi.check, m, rho, gamma)
            failed += not (verdict.hypotheses_hold and verdict.satisfied)
        out.check(failed == 0, f"meanineq sweep: {failed} of {len(self.sweep)} checks failed")
        out.counts.update({"checks": len(self.sweep), "checks_s": out.seconds})

    def _counterexamples(self, tr, out: Outcome) -> None:
        mi = self.pkg.meanineq
        for rows, rho, gamma in COUNTEREXAMPLES:
            m = timed(tr, out, "meanineq.NonnegMatrix", mi.NonnegMatrix, rows)
            verdict = timed(tr, out, "meanineq.check", mi.check, m, rho, gamma)
            single = min(m.row_sums) >= rho and min(m.col_sums) >= gamma
            out.check(
                single and not verdict.hypotheses_hold and not verdict.satisfied,
                f"counterexample {rows}: does not violate the inequality",
            )
            found = timed(tr, out, "meanineq.find_weak_hypothesis_violation", mi.find_weak_hypothesis_violation, m)
            out.check(found is not None, f"counterexample {rows}: no violation found on the grid")

    def _bound_grid(self, girth: int):
        def run(tr, out: Outcome) -> None:
            b = self.pkg.bounds
            report, span = b.bound_report, range(1, BOUND_GRID + 1)
            bad = 0
            for v in span:
                row = timed(tr, out, "bounds.bound_report", lambda: [report(v, w, girth) for w in span], items=BOUND_GRID)
                for w, rep in zip(span, row):
                    bad += rep.binding_value != min(rep.values.values())
                    if girth == 8:
                        c = rep.values["cubic"]
                        bad += not (b.eval_cubic(v, w, c) <= 0 < b.eval_cubic(v, w, c + 1))
                    else:
                        a, d, r = min(v, w), max(v, w), rep.values["reiman"]
                        bad += not (b.eval_reiman(a, d, r) <= 0 < b.eval_reiman(a, d, r + 1))
            out.check(bad == 0, f"bound grid girth {girth}: {bad} cells wrong")
            out.counts.update({"cells": BOUND_GRID * BOUND_GRID, "cells_s": out.seconds})

        return run

    def headline(self, meds: dict[str, float], passes) -> dict[str, tuple[float, str]]:
        family = [k for k in meds if not k.startswith(("meanineq.", "bounds."))]
        checks = pass_counts(passes, "checks")[0]
        cells = 2 * BOUND_GRID * BOUND_GRID
        return {
            "analytics.geometry_s": (sum(meds[k] for k in family), "s"),
            "analytics.meanineq_checks_per_s": (checks / meds["meanineq.sweep"], "1/s"),
            "analytics.bound_cells_per_s": (cells / (meds["bounds.grid.g6"] + meds["bounds.grid.g8"]), "1/s"),
        }

    def close(self) -> None:
        pass
