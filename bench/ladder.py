"""search-ladder: in-process exhaustive searches on a fixed instance ladder.

Each operation is one ``search.max_size(v, w, girth, threads=1)`` under the
default budgets, timed on its own.  The ladder is split by girth floor and
by whether the optimum meets the paper's bound (the cubic bound at girth 8,
the quadratic (Reiman) bound at girth 6): *tight*, or falls below it:
*slack*.  Most slack instances still meet a weaker bound that
``bound_report`` lists (the coarse bound or the unbalanced cap); one in
each slack group falls below every bound it lists, so that an optimality
proof from ``binding_value`` cannot close the whole ladder.  The seed only
shuffles the order of the instances in each pass.
"""

from __future__ import annotations

import random

from core import Op, Outcome, pass_counts, probe, timed

# (group, v, w, girth floor, pinned e_max, below every bound in
# bound_report).  Instances take 0.05 s to 1.5 s each, so that a run holds
# several passes and reports steady figures.
LADDER = (
    ("g6_tight", 7, 6, 6, 18, False),
    ("g6_tight", 8, 5, 6, 17, False),
    ("g6_tight", 9, 4, 6, 15, False),
    ("g6_slack", 8, 3, 6, 11, False),
    ("g6_slack", 9, 3, 6, 12, False),
    ("g6_slack", 6, 8, 6, 19, True),
    ("g8_tight", 6, 5, 8, 12, False),
    ("g8_tight", 7, 5, 8, 13, False),
    ("g8_tight", 8, 5, 8, 14, False),
    ("g8_slack", 7, 3, 8, 9, False),
    ("g8_slack", 8, 3, 8, 10, False),
    ("g8_slack", 6, 7, 8, 14, True),
)
GROUPS = ("g6_tight", "g6_slack", "g8_tight", "g8_slack")


def instance_name(v: int, w: int, girth: int) -> str:
    return f"g{girth}.{v}x{w}"


def check_certificate(pkg, tr, out: Outcome, cert, v, w, girth, e_max) -> None:
    """The checks every search certificate must pass, in-process or via the CLI.

    Node counts are recorded but not checked: a change that prunes more is
    not wrong.
    """
    label = instance_name(v, w, girth)
    out.check(cert.e_max == e_max, f"{label}: e_max {cert.e_max} != {e_max}")
    out.check(cert.exhaustive, f"{label}: search not exhaustive")
    wit = cert.witness
    out.check((wit.v, wit.w, wit.e) == (v, w, e_max), f"{label}: witness shape {wit!r}")
    rep = probe(tr, "graphcore.girth", pkg.graphcore.girth, wit)
    out.check(rep.girth is None or rep.girth >= girth, f"{label}: witness girth {rep.girth}")
    paths = probe(tr, "graphcore.count_paths3", pkg.graphcore.count_paths3, wit)
    enum = probe(tr, "graphcore.count_paths3_enumerate", pkg.graphcore.count_paths3_enumerate, wit)
    mat = probe(tr, "meanineq.NonnegMatrix", pkg.meanineq.NonnegMatrix.from_graph, wit)
    phi = probe(tr, "meanineq.phi", pkg.meanineq.phi, mat, 1, 1)
    out.check(paths == enum == phi, f"{label}: paths3 {paths}/{enum}/{phi} disagree")


class SearchLadder:
    name = "search-ladder"

    def __init__(self, seed: int, root, scratch) -> None:
        self.seed = seed

    def setup(self, pkg) -> None:
        self.pkg = pkg
        self.ladder = list(LADDER)
        # Warm-up: one tiny search and its witness check.
        cert = pkg.search.max_size(4, 4, 8)
        if cert.e_max != 8:
            raise RuntimeError("warm-up search returned a wrong maximum")

    def reference(self) -> None:
        pass

    def ops(self, pass_index: int) -> list[Op]:
        order = list(self.ladder)
        random.Random(f"{self.seed}:{pass_index}").shuffle(order)
        return [Op(instance_name(*entry[1:4]), self._op(*entry)) for entry in order]

    def _op(self, group, v, w, girth, e_max, below_all):
        pkg = self.pkg

        def run(tr, out: Outcome) -> None:
            cert = timed(tr, out, "search.max_size", pkg.search.max_size, v, w, girth, threads=1)
            label = instance_name(v, w, girth)
            out.counts.update({
                "nodes": cert.nodes_explored,
                "search_s": out.seconds,
                f"nodes:search.{label}": cert.nodes_explored,
                f"s:search.{label}": out.seconds,
                f"s:search.{group}": out.seconds,
            })
            check_certificate(pkg, tr, out, cert, v, w, girth, e_max)
            rep = probe(tr, "bounds.bound_report", pkg.bounds.bound_report, v, w, girth)
            cap = rep.values["cubic" if girth == 8 else "reiman"]
            tight = group.endswith("tight")
            out.check(
                (e_max == cap) == tight,
                f"{label}: e_max {e_max} vs the paper's bound {cap} is not {group}",
            )
            out.check(
                (e_max < rep.binding_value) == below_all,
                f"{label}: e_max {e_max} vs binding bound {rep.binding_value} is not as pinned",
            )

        return run

    def headline(self, meds: dict[str, float], passes) -> dict[str, tuple[float, str]]:
        """Seconds to exhaustive certificates per group, and nodes per pass."""
        lines = {
            f"search.{group}_s": (
                sum(meds[instance_name(v, w, g)] for grp, v, w, g, _, _ in LADDER if grp == group), "s",
            )
            for group in GROUPS
        }
        nodes = pass_counts(passes, "nodes")
        lines["search.nodes"] = (nodes[0], "count")
        if len(set(nodes)) > 1:
            lines["search.nodes (passes disagree, max)"] = (max(nodes), "count")
        return lines

    def close(self) -> None:
        pass
