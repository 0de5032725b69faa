import hashlib
import json
import random
import sys
import time
from functools import cmp_to_key
from itertools import chain, repeat
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from girthbound import bounds, graphcore, search
from girthbound.graphcore import contract, from_edges, girth
from girthbound.search import BudgetExhausted, certify_bound, max_size
from helpers import forbid_processes, short_path_exists

# e_max and witness edges for every (v, w) with v*w <= 30 at girths 6 and 8,
# as the search returned them before it stopped at the least proven bound.
# Cells in the unbalanced regime hold the family member max_size returns
# there; at girth 6 it is the graph the search used to return.
CERTIFICATES = Path(__file__).parent / "data" / "certificates.json"


def brute_force_max(v: int, w: int, min_girth: int) -> int:
    """Plain include/exclude DFS over all edge subsets with only the
    incremental girth check: no symmetry breaking, no bound pruning.
    Exponential, so only for tiny instances."""
    pool = [(i, j) for i in range(v) for j in range(w)]
    adj_v: list[list[int]] = [[] for _ in range(v)]
    adj_w: list[list[int]] = [[] for _ in range(w)]
    best = 0

    def rec(k: int, e: int) -> None:
        nonlocal best
        if e > best:
            best = e
        if k == len(pool):
            return
        i, j = pool[k]
        if not short_path_exists(adj_v, adj_w, i, j, min_girth - 2):
            adj_v[i].append(j)
            adj_w[j].append(i)
            rec(k + 1, e + 1)
            adj_v[i].pop()
            adj_w[j].pop()
        rec(k + 1, e)

    rec(0, 0)
    return best


class TestContractionCycleTest:
    """The kernel's cycle test, cmask[i] & _short_cycle_mask(...), against
    the independent BFS oracle on random partial graphs of girth >= 6."""

    def test_agrees_with_bfs_on_every_candidate_edge(self):
        rng = random.Random(20)
        for _ in range(150):
            v, w = rng.randint(1, 10), rng.randint(1, 10)
            pool = [(i, j) for i in range(v) for j in range(w)]
            rng.shuffle(pool)
            floor = rng.choice((6, 8))
            adj_v = [[] for _ in range(v)]
            adj_w = [[] for _ in range(w)]
            amask_w = [0] * w
            cmask = [0] * v
            edges = []
            for i, j in pool[: rng.randint(0, len(pool))]:
                if short_path_exists(adj_v, adj_w, i, j, floor - 2):
                    continue
                # The kernel's incremental update of the contraction masks.
                for x in adj_w[j]:
                    cmask[x] ^= 1 << i
                cmask[i] ^= amask_w[j]
                amask_w[j] |= 1 << i
                adj_v[i].append(j)
                adj_w[j].append(i)
                edges.append((i, j))
            expected = [0] * v
            for x, z in contract(from_edges(v, w, edges)).edges:
                expected[x] |= 1 << z
                expected[z] |= 1 << x
            assert cmask == expected
            for g in (6, 8):
                for j in range(w):
                    reach = search._short_cycle_mask(cmask, amask_w[j], g)
                    for i in range(v):
                        if j in adj_v[i]:
                            continue
                        closes = bool(cmask[i] & reach)
                        assert closes == short_path_exists(adj_v, adj_w, i, j, g - 2), (
                            v, w, floor, edges, i, j, g
                        )


class TestSmallExactValues:
    @pytest.mark.parametrize(
        "v,w,expected",
        [(3, 3, 5), (4, 3, 6), (5, 3, 7), (4, 4, 8), (5, 4, 9), (5, 5, 10), (6, 5, 12)],
    )
    def test_girth8(self, v, w, expected):
        cert = max_size(v, w, 8)
        assert cert.exhaustive
        assert cert.e_max == expected

    @pytest.mark.parametrize("v,w,expected", [(2, 2, 3), (3, 3, 6), (4, 4, 9)])
    def test_girth6(self, v, w, expected):
        cert = max_size(v, w, 6)
        assert cert.exhaustive
        assert cert.e_max == expected

    def test_c8_witness_shape(self):
        cert = max_size(4, 4, 8)
        wt = cert.witness
        assert wt.e == 8
        assert set(wt.degrees_v()) == {2} == set(wt.degrees_w())
        assert girth(wt).girth == 8  # 2-regular at girth 8 on 8 vertices: one C8

    def test_trivial_sizes(self):
        assert max_size(1, 1, 8).e_max == 1
        assert max_size(1, 5, 8).e_max == 5
        assert max_size(2, 1, 6).e_max == 2


class TestBruteForceOracle:
    def test_agreement_on_all_tiny_instances(self):
        # Full subset enumeration vs the pruned symmetry-broken search, with
        # v > w too, which the search runs transposed; 5x4, 6x3 and 7x3
        # take those cases past 16 cells.  The uncapped search
        # (certify_bound's) runs to the end of its tree, so a stop at the
        # bound cannot hide an optimum that the symmetry break or the pair
        # count lost.
        pairs = [(v, w) for v in range(1, 9) for w in range(1, 9) if v * w <= 16]
        for g in (6, 8):
            for v, w in pairs + [(5, 4), (6, 3), (7, 3)]:
                expected = brute_force_max(v, w, g)
                assert max_size(v, w, g).e_max == expected, (v, w, g)
                uncapped = search._search(
                    v, w, g, v * w, search.DEFAULT_MAX_NODES, search.DEFAULT_MAX_SECONDS
                )
                assert (uncapped.e_max, uncapped.exhaustive) == (expected, True), (v, w, g)

    def test_agreement_on_a_wider_instance(self):
        assert max_size(4, 5, 8).e_max == brute_force_max(4, 5, 8)
        assert max_size(4, 5, 6).e_max == brute_force_max(4, 5, 6)


class TestWitnesses:
    def test_witness_reverifies_and_matches_emax(self):
        rng = random.Random(3)
        for _ in range(12):
            v, w = rng.randint(1, 5), rng.randint(1, 5)
            g = rng.choice((6, 8))
            cert = max_size(v, w, g)
            rep = girth(cert.witness)
            assert rep.girth is None or rep.girth >= g
            assert cert.witness.e == cert.e_max
            assert (cert.witness.v, cert.witness.w) == (v, w)

    def test_witnesses_satisfy_degree2_propositions(self):
        for v, w, g in ((5, 5, 8), (4, 4, 6), (6, 5, 8), (5, 4, 6)):
            wt = max_size(v, w, g).witness
            assert girth(wt).girth != 4
            if wt.min_degree() >= 2:
                assert wt.w <= comb(wt.v, 2) and wt.v <= comb(wt.w, 2)


class TestEqualityCase:
    """The paper's equality theorems as an oracle for search witnesses: a
    witness that meets a bound with equality must have its extremal
    structure, whatever branch of the search produced it."""

    @pytest.mark.parametrize("v,w", [(4, 4), (6, 9), (9, 6)])
    def test_girth8_witness_meeting_the_cubic_is_a_weak_gq(self, v, w):
        cert = max_size(v, w, 8)
        assert bounds.eval_cubic(v, w, cert.e_max) == 0
        assert graphcore.verify_weak_gq(cert.witness)

    @pytest.mark.parametrize("v,w", [(3, 3), (4, 6), (6, 4), (7, 7)])
    def test_girth6_witness_meeting_reiman_contracts_to_a_complete_graph(self, v, w):
        cert = max_size(v, w, 6)
        g = cert.witness
        if w < v:  # contract onto the smaller class
            g = from_edges(w, v, [(j, i) for i, j in g.edges])
        assert bounds.eval_reiman(g.v, g.w, cert.e_max) == 0
        assert contract(g).e == comb(g.v, 2)


class TestSymmetryAndMonotonicity:
    def test_role_symmetry(self):
        # The search runs on (min, max) and transposes its witness back, so
        # both orientations cost the same nodes and share one witness.
        for g in (6, 8):
            for v in range(1, 7):
                for w in range(1, v):
                    tall, wide = max_size(v, w, g), max_size(w, v, g)
                    assert (tall.v, tall.w, tall.witness.v, tall.witness.w) == (v, w, v, w)
                    assert (tall.e_max, tall.exhaustive, tall.nodes_explored) == (
                        wide.e_max, wide.exhaustive, wide.nodes_explored
                    ), (v, w, g)
                    assert tall.witness == from_edges(v, w, [(i, j) for j, i in wide.witness.edges])

    def test_monotone_in_v(self):
        for w in (3, 4):
            prev = 0
            for v in range(1, 7):
                cur = max_size(v, w, 8).e_max
                assert cur >= prev
                prev = cur

    def test_girth8_at_most_girth6(self):
        for v, w in ((3, 3), (4, 4), (4, 5)):
            assert max_size(v, w, 8).e_max <= max_size(v, w, 6).e_max

    @staticmethod
    def w_order(a: int, b: int) -> int:
        """The kernel's column order on neighbour masks: higher degree
        first, then the set holding the lowest differing bit."""
        if a.bit_count() != b.bit_count():
            return b.bit_count() - a.bit_count()
        diff = a ^ b
        return 0 if not diff else (-1 if a & diff & -diff else 1)

    def test_relabelling_makes_columns_0_and_1_canonical(self):
        # The lemma behind the class-V symmetry break, without the kernel:
        # relabel V as the search module's proof does, sort the columns
        # into the kernel's order, and column 0 is rows 0..d-1 while
        # column 1 is S | {d, ..., d+k-1} with S = {0} or empty.
        rng = random.Random(12)
        for _ in range(400):
            v, w = rng.randint(1, 8), rng.randint(1, 8)
            floor = rng.choice((6, 8))
            adj_v = [[] for _ in range(v)]
            adj_w = [[] for _ in range(w)]
            pool = [(i, j) for i in range(v) for j in range(w)]
            rng.shuffle(pool)
            for i, j in pool[: rng.randint(0, len(pool))]:
                if not short_path_exists(adj_v, adj_w, i, j, floor - 2):
                    adj_v[i].append(j)
                    adj_w[j].append(i)
            cols = [set(rows) for rows in adj_w]
            d = max(map(len, cols))
            a = rng.choice([j for j in range(w) if len(cols[j]) == d])
            rest = [j for j in range(w) if j != a]
            b_rows = set()
            if rest:
                top = max(len(cols[j]) for j in rest)
                tied = [j for j in rest if len(cols[j]) == top]
                b_rows = cols[rng.choice([j for j in tied if cols[j] & cols[a]] or tied)]
            common = sorted(cols[a] & b_rows)
            assert len(common) <= 1  # girth >= 6
            a_rest = sorted(cols[a] - b_rows)
            others = [i for i in range(v) if i not in cols[a] | b_rows]
            rng.shuffle(a_rest)
            rng.shuffle(others)
            order = common + a_rest + sorted(b_rows - cols[a]) + others
            label = {old: new for new, old in enumerate(order)}
            masks = [sum(1 << label[i] for i in c) for c in cols]
            masks.sort(key=cmp_to_key(self.w_order))
            case = (v, w, floor, adj_w)
            assert masks[0] == (1 << d) - 1, case
            second = masks[1] if w > 1 else 0
            k = (second >> d).bit_count()
            assert second & ((1 << d) - 1) in (0, 1), case
            assert second >> d == (1 << k) - 1, case


class TestUnbalancedRegime:
    """With (a, b) = (max(v, w), min(v, w)) and h = C(b, 2) at girth 6,
    floor(b^2 / 4) at girth 8: when a >= h, max_size returns the family
    member (unbalanced6, or unbalanced8 at girth 8 for b >= 2), which meets
    the least proven bound, and searches nothing."""

    def test_every_regime_cell_is_proven_by_its_construction(self, monkeypatch):
        # Every cell with b <= 12 and a <= 150, in both orientations.  Each
        # witness passes through graphcore.girth once, inside max_size; the
        # spy keeps that report, so the BFS does not run twice.
        reports = []

        def spy(g):
            reports.append((g, girth(g)))
            return reports[-1][1]

        monkeypatch.setattr(graphcore, "girth", spy)
        for g in (6, 8):
            for b in range(1, 13):
                h = comb(b, 2) if g == 6 else b * b // 4
                for a in range(max(b, h), 151):
                    for v, w in {(a, b), (b, a)}:
                        cert = max_size(v, w, g)
                        bound = bounds.bound_report(v, w, g).binding_value
                        assert (cert.e_max, cert.exhaustive, cert.nodes_explored) == (
                            bound, True, 0
                        ), (v, w, g)
                        witness, report = reports.pop()
                        assert witness is cert.witness
                        assert (witness.v, witness.w, witness.e) == (v, w, bound)
                        assert report.girth is None or report.girth >= g, (v, w, g)

    def test_a_construction_off_the_bound_or_the_floor_is_an_internal_error(self, monkeypatch):
        from girthbound import constructions

        # g6 3x2: b = 2, h = 1, and the bound is a + h = 4.  The family
        # member is built as (b, a) and transposed.
        one_edge = from_edges(2, 3, [(0, 0)])
        monkeypatch.setattr(constructions, "unbalanced6", lambda v, w: one_edge)
        with pytest.raises(RuntimeError, match="construction has 1 edges, not the bound 4"):
            max_size(3, 2, 6)
        square = from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        monkeypatch.setattr(constructions, "unbalanced6", lambda v, w: square)
        with pytest.raises(RuntimeError, match="witness girth 4 below floor 6"):
            max_size(2, 2, 6)

    def test_the_largest_regime_cells_take_no_search(self):
        # Each was past the recursion limit, or past a second, as a search.
        for v, w, g, e in ((1000, 3, 8, 1002), (3, 1000, 8, 1002), (20000, 2, 6, 20001)):
            cert = max_size(v, w, g, max_nodes=1)
            assert (cert.e_max, cert.exhaustive, cert.nodes_explored) == (e, True, 0)


class TestBoundCertification:
    def test_examples(self):
        assert certify_bound(5, 5, 8)
        assert max_size(5, 5, 8).e_max == bounds.cubic_max_e(5, 5) == 10
        assert certify_bound(4, 4, 6)
        assert max_size(4, 4, 6).e_max == 9 == bounds.reiman_max_e(4, 4)
        assert certify_bound(3, 3, 6)
        assert max_size(3, 3, 6).e_max == 6 == bounds.reiman_max_e(3, 3)

    @pytest.mark.parametrize("g", [6, 8])
    def test_certify_is_symmetric(self, g):
        for v in range(1, 6):
            for w in range(1, 6):
                assert certify_bound(v, w, g) == certify_bound(w, v, g), (v, w, g)

    def test_certify_checks_the_bound_it_reports(self, monkeypatch):
        # A bound one below the true maximum must be refuted, which a search
        # pruned against that same bound could never do.
        assert certify_bound(5, 5, 8)
        monkeypatch.setattr(bounds, "size_cap", lambda v, w, g: 9)
        assert not certify_bound(5, 5, 8)

    def test_optimality(self):
        assert max_size(8, 5, 8).optimality == "bound"  # the cubic bound
        assert max_size(8, 3, 8).optimality == "bound"  # the unbalanced cap and coarse bound
        assert max_size(6, 7, 8).optimality == "exhaustive"  # below every bound
        # The search stops at the least bound, here after 11 nodes.
        assert max_size(8, 3, 8, max_nodes=50).optimality == "bound"
        cut = max_size(6, 7, 8, max_nodes=50)
        assert not cut.exhaustive
        assert cut.e_max < bounds.bound_report(6, 7, 8).binding_value
        assert cut.optimality == "none"

    def test_exhaustive_results_respect_all_bounds(self):
        for v in range(1, 7):
            for w in range(1, 7):
                cert = max_size(v, w, 8)
                assert cert.exhaustive
                assert cert.e_max <= bounds.cubic_max_e(v, w)
                assert cert.e_max <= bounds.girth8_coarse_bound(v, w)
                cap = bounds.unbalanced_cap(v, w)
                if cap is not None:
                    assert cert.e_max <= cap


class TestDeterminismAndBudgets:
    def test_repeat_runs_identical(self):
        a = max_size(6, 5, 8)
        b = max_size(6, 5, 8)
        assert (a.e_max, a.nodes_explored, a.witness) == (b.e_max, b.nodes_explored, b.witness)

    @pytest.mark.parametrize(
        "v,w,g,nodes",
        [
            (7, 5, 8, 97),
            (7, 6, 6, 85),
            (9, 6, 8, 1334),
            (8, 3, 8, 11),
            (300, 3, 8, 303),
            # The maximum, found under (0, 0), (1, 0), prunes the two later
            # branches.
            (6, 8, 6, 72),
            # Searched as 5x40; in its own orientation it takes 7,967 nodes.
            (40, 5, 8, 196),
        ],
    )
    def test_pinned_node_counts(self, v, w, g, nodes):
        # The tree a pruning change would alter; update with a reason.
        # max_size proves 7x5, 9x6, 8x3, 300x3 and 40x5 by construction
        # with no tree, so the kernel is pinned through the search it runs
        # on every other cell, stopped at the same least proven bound.
        cap = bounds.bound_report(v, w, g).binding_value
        cert = search._search(v, w, g, cap, search.DEFAULT_MAX_NODES, search.DEFAULT_MAX_SECONDS)
        assert cert.nodes_explored == nodes

    # e_max of every cell with v, w <= 9: row v, column w.
    GRID_E_MAX = {
        6: (
            (1, 2, 3, 4, 5, 6, 7, 8, 9),
            (2, 3, 4, 5, 6, 7, 8, 9, 10),
            (3, 4, 6, 7, 8, 9, 10, 11, 12),
            (4, 5, 7, 9, 10, 12, 13, 14, 15),
            (5, 6, 8, 10, 12, 14, 15, 17, 18),
            (6, 7, 9, 12, 14, 16, 18, 19, 21),
            (7, 8, 10, 13, 15, 18, 21, 22, 24),
            (8, 9, 11, 14, 17, 19, 22, 24, 26),
            (9, 10, 12, 15, 18, 21, 24, 26, 29),
        ),
        8: (
            (1, 2, 3, 4, 5, 6, 7, 8, 9),
            (2, 3, 4, 5, 6, 7, 8, 9, 10),
            (3, 4, 5, 6, 7, 8, 9, 10, 11),
            (4, 5, 6, 8, 9, 10, 11, 12, 13),
            (5, 6, 7, 9, 10, 12, 13, 14, 15),
            (6, 7, 8, 10, 12, 13, 14, 16, 18),
            (7, 8, 9, 11, 13, 14, 16, 17, 19),
            (8, 9, 10, 12, 14, 16, 17, 19, 20),
            (9, 10, 11, 13, 15, 18, 19, 20, 22),
        ),
    }

    def test_pinned_grid(self):
        # Every cell with v, w <= 9 at both girths: the total nodes per girth
        # and a digest of each cell's e_max, node count and witness.  A
        # pruning or ordering change alters it; update with a reason.  The
        # cells with max(v, w) >= h (the unbalanced regime) take 0 nodes and
        # hold the family member; the others are the kernel's trees.  No
        # such change may alter an e_max, so GRID_E_MAX pins them apart.
        rows, nodes = [], {6: 0, 8: 0}
        e_max = {6: [], 8: []}
        for g in (6, 8):
            for v in range(1, 10):
                for w in range(1, 10):
                    cert = max_size(v, w, g)
                    assert cert.exhaustive, (v, w, g)
                    nodes[g] += cert.nodes_explored
                    e_max[g].append(cert.e_max)
                    edges = [list(e) for e in cert.witness.edges]
                    rows.append([v, w, g, cert.e_max, cert.nodes_explored, edges])
        assert e_max == {g: list(chain(*table)) for g, table in self.GRID_E_MAX.items()}
        assert nodes == {6: 146_693, 8: 413_838}
        digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode())
        assert digest.hexdigest() == (
            "b07b891be1a788e08d2d2e0f7223904cab052f0baade13f6ea25cf1eba4fae26"
        )

    def test_instance_out_of_reach_without_the_class_v_symmetry_break(self):
        # g8 8x7 lies below every bound, so only the completed tree proves
        # 17; with only column 0 fixed the tree takes 56,564 nodes.
        cert = max_size(8, 7, 8)
        assert (cert.e_max, cert.exhaustive, cert.nodes_explored) == (17, True, 8236)
        assert cert.optimality == "exhaustive"

    def test_g6_9x9_is_proven_within_a_hundred_thousand_nodes(self):
        # 29 lies below the Reiman bound of 30, so only the completed tree
        # proves it, in 30,636 nodes; with only column 0 fixed it takes
        # 327,521, and this budget stops it at 27 edges.
        cert = max_size(9, 9, 6, max_nodes=100_000)
        assert (cert.e_max, cert.exhaustive, cert.optimality) == (29, True, "exhaustive")

    def test_search_stops_when_its_best_graph_meets_the_bound(self):
        # g8 5x5 reaches its cubic bound of 10 at its 37th node and stops
        # there, proven; a budget one node short leaves it cut at 9 edges.
        assert bounds.bound_report(5, 5, 8).binding_value == 10
        cut = max_size(5, 5, 8, max_nodes=36)
        assert (cut.e_max, cut.exhaustive, cut.nodes_explored) == (9, False, 36)
        done = max_size(5, 5, 8, max_nodes=37)
        assert (done.e_max, done.exhaustive, done.nodes_explored) == (10, True, 37)
        assert done.witness == max_size(5, 5, 8).witness

    def test_certificates_match_the_table(self):
        for row in json.loads(CERTIFICATES.read_text()):
            cert = max_size(row["v"], row["w"], row["girth"])
            assert cert.exhaustive
            got = (cert.e_max, [list(e) for e in cert.witness.edges])
            assert got == (row["e_max"], row["edges"]), row

    def test_certificates_with_v_above_w_are_transposes(self):
        rows = json.loads(CERTIFICATES.read_text())
        table = {(r["v"], r["w"], r["girth"]): r for r in rows}
        tall = [r for r in rows if r["v"] > r["w"]]
        assert len(tall) == 106
        for row in tall:
            wide = table[row["w"], row["v"], row["girth"]]
            assert row["e_max"] == wide["e_max"], row
            assert row["edges"] == sorted([j, i] for i, j in wide["edges"]), row

    @pytest.mark.parametrize("g", [6, 8])
    def test_default_budgets_complete_up_to_64_cells(self, g):
        # certificates.json stops at v*w = 30; the guarantee max_size
        # documents runs to 64.
        for v in range(1, 65):
            for w in range(30 // v + 1, 64 // v + 1):
                assert max_size(v, w, g).exhaustive, (v, w, g)

    def test_time_budget_is_honoured(self):
        start = time.monotonic()
        cert = max_size(30, 30, 6, max_seconds=1.0)
        assert time.monotonic() - start < 1.5
        assert not cert.exhaustive
        rep = girth(cert.witness)
        assert rep.girth is None or rep.girth >= 6

    def test_threads_1_and_2_give_the_same_certificate(self):
        full = search.DEFAULT_MAX_NODES
        for v, w, g, max_nodes in ((6, 4, 8, full), (8, 5, 8, full), (8, 3, 8, 50), (6, 7, 8, 50)):
            one = max_size(v, w, g, max_nodes=max_nodes, threads=1)
            two = max_size(v, w, g, max_nodes=max_nodes, threads=2)
            assert one.e_max == two.e_max
            assert one.nodes_explored == two.nodes_explored
            assert one.witness == two.witness
            assert one.exhaustive == two.exhaustive

    def test_threads_start_no_process(self, monkeypatch):
        one = max_size(8, 5, 8, threads=1)
        bounded = certify_bound(6, 6, 6, threads=1)
        forbid_processes(monkeypatch)
        two = max_size(8, 5, 8, threads=2)
        assert (two.e_max, two.witness, two.nodes_explored, two.exhaustive) == (
            one.e_max, one.witness, one.nodes_explored, one.exhaustive
        )
        assert certify_bound(6, 6, 6, threads=4) == bounded

    def test_node_budget_exhaustion(self):
        # g8 6x7 lies below every bound, so 50 nodes cannot prove its 14.
        cert = max_size(6, 7, 8, max_nodes=50)
        assert not cert.exhaustive
        assert cert.e_max <= 14
        rep = girth(cert.witness)
        assert rep.girth is None or rep.girth >= 8

    @pytest.mark.parametrize("max_nodes", [1, 2, 5, 9, 10, 50, 1000])
    def test_node_budget_is_global(self, max_nodes):
        # 6x7 g8 takes 1,066 nodes, so every budget here cuts it, and a cut
        # search has spent exactly its budget.
        cert = max_size(6, 7, 8, max_nodes=max_nodes)
        assert not cert.exhaustive
        assert cert.nodes_explored == max_nodes
        assert cert.witness.e == cert.e_max

    def test_no_graph_is_credited_before_its_node_is_counted(self, monkeypatch):
        # Each node below the empty root adds one edge to its parent's
        # graph, so a search that credits only counted graphs has e_max <
        # its nodes.
        for max_nodes in range(1, 51):
            cert = max_size(6, 7, 8, max_nodes=max_nodes)
            assert cert.e_max < cert.nodes_explored == max_nodes, max_nodes
            assert cert.witness.e == cert.e_max
        # A clock that moves a second per reading: the deadline has passed
        # before the first node, and the search stops at its first clock
        # check, after 1,024 nodes, the root included, by when the maximum
        # of 14 has been found (at node 190).
        clock = iter(range(10 ** 6))
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        cert = max_size(6, 7, 8, max_seconds=0.5)
        assert (cert.e_max, cert.nodes_explored, cert.exhaustive) == (14, 1024, False)
        assert cert.e_max < cert.nodes_explored
        assert cert.witness.e == cert.e_max

    @pytest.mark.parametrize("v,w,g", [(6, 8, 6), (6, 7, 8)])
    def test_a_clock_cut_reports_the_graphs_it_built(self, monkeypatch, v, w, g):
        # With the clock read before every child, a clock that expires at
        # its (k + 2)-th reading (the first sets the deadline) cuts the
        # search after the root and k children, as a node budget of k + 1
        # does: the same count, best graph and verdict.
        monkeypatch.setattr(search, "_TIME_CHECK_MASK", 0)
        for k in range(60):
            readings = chain([0.0] * (k + 1), repeat(2.0))
            monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(readings)))
            cut = max_size(v, w, g, max_seconds=1.0)
            ref = max_size(v, w, g, max_nodes=k + 1, max_seconds=float("inf"))
            got = (cut.e_max, cut.witness, cut.nodes_explored, cut.exhaustive)
            assert got == (ref.e_max, ref.witness, k + 1, False), k

    @pytest.mark.parametrize("v,w,g,e", [(6, 8, 6, 13), (6, 7, 8, 12)])
    def test_a_node_is_a_graph_the_search_builds(self, monkeypatch, v, w, g, e):
        # With no slot left every ceiling is its floor, one more edge, so
        # only a child that beats the best graph is built: the search
        # follows one greedy path, and counts the root and its edges.
        monkeypatch.setattr(search, "_slots", lambda *args: 0)
        cert = max_size(v, w, g)
        assert (cert.e_max, cert.witness.e, cert.nodes_explored) == (e, e, e + 1)

    def test_every_budget_cuts_the_search_at_its_size(self):
        # g6 6x8 takes 72 nodes; a smaller budget stops the search at
        # exactly its size.
        full = max_size(6, 8, 6)
        assert (full.nodes_explored, full.exhaustive) == (72, True)
        for max_nodes in range(1, full.nodes_explored):
            cert = max_size(6, 8, 6, max_nodes=max_nodes)
            assert (cert.nodes_explored, cert.exhaustive) == (max_nodes, False), max_nodes
            assert cert.e_max < max_nodes
            assert cert.witness.e == cert.e_max
        done = max_size(6, 8, 6, max_nodes=full.nodes_explored)
        assert (done.e_max, done.witness, done.exhaustive) == (full.e_max, full.witness, True)

    def test_explore_returns_masks_only_up_to_the_last_column_in_use(self):
        # A million columns, of which the best graph after 500 nodes uses
        # 497: the result holds no mask for the unused rest.
        cap = bounds.bound_report(3, 10 ** 6, 8).binding_value
        best_e, masks, nodes, done = search._explore(3, 10 ** 6, 8, cap, 500, float("inf"))
        assert (nodes, done) == (500, False)
        assert 0 < len(masks) <= best_e
        assert sum(mask.bit_count() for mask in masks) == best_e
        assert masks[-1]  # the last column in use is not empty

    def test_search_past_the_recursion_limit_is_a_value_error(self):
        # g8 1000x64 lies below the unbalanced regime (1000 < 64^2 / 4), so
        # max_size searches it.  certify_bound searches every cell, 1000x3
        # too, which max_size proves by construction.
        limit = sys.getrecursionlimit()
        for call, v, w in ((max_size, 1000, 64), (certify_bound, 1000, 64), (certify_bound, 1000, 3)):
            with pytest.raises(ValueError) as exc:
                call(v, w, 8)
            assert str(exc.value) == (
                f"search on v={v} w={w} recurses once per edge, past Python's"
                f" recursion limit of {limit}"
            )

    def test_search_below_the_recursion_limit_is_unchanged(self):
        # One call per edge: g6 186x20's 374 edges (searched as 20x186,
        # just below the regime, 186 < C(20, 2)) and the 602 edges of
        # certify_bound's search on 600x3 stay under the default limit of
        # 1000.
        cert = max_size(186, 20, 6)
        assert (cert.e_max, cert.exhaustive, cert.nodes_explored) == (374, True, 130_690)
        assert certify_bound(600, 3, 8)

    def test_certify_raises_on_budget(self):
        # The uncapped search of g8 6x7 takes thousands of nodes.
        with pytest.raises(BudgetExhausted):
            certify_bound(6, 7, 8, max_nodes=50)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_size(0, 3, 8)
        with pytest.raises(ValueError):
            max_size(3, 3, 7)
        with pytest.raises(ValueError):
            max_size(3, 3, 8, threads=0)
        with pytest.raises(ValueError):
            max_size(3, 3, 8, max_nodes=0)

    @pytest.mark.parametrize("call", [max_size, certify_bound])
    def test_node_budget_must_be_an_integer(self, call):
        # The search stops when its count equals the budget, so 100.5 would
        # never stop it: g8 9x9 would run all 246,227 nodes.
        with pytest.raises(ValueError, match="node budget must be an integer, got 100.5"):
            call(9, 9, 8, max_nodes=100.5)
        with pytest.raises(ValueError, match="node budget must be an integer"):
            call(6, 8, 6, max_nodes=100.5)

    @pytest.mark.parametrize("call", [max_size, certify_bound])
    def test_node_budget_must_not_be_a_bool(self, call):
        # bool subclasses int, but True is no budget: it would stop the
        # search after one node.
        for budget in (True, False):
            with pytest.raises(ValueError, match=f"node budget must be an integer, got {budget}"):
                call(6, 8, 6, max_nodes=budget)

    @pytest.mark.parametrize("call", [max_size, certify_bound])
    def test_time_budget_and_threads_must_not_be_bools(self, call):
        # bool subclasses int, but True is neither a one-second budget nor
        # one thread.
        with pytest.raises(ValueError, match="time budget must be a number, got True"):
            call(4, 4, 8, max_seconds=True)
        with pytest.raises(ValueError, match="threads must be an integer, got True"):
            call(4, 4, 8, threads=True)

    @pytest.mark.parametrize(
        "call,args,message",
        [
            (max_size, (0, 3, 8), "class sizes must be >= 1, got v=0 w=3"),
            (max_size, (3, 3, 7), "girth target must be 6 or 8, got 7"),
            (certify_bound, (3, 0, 6), "class sizes must be >= 1, got v=3 w=0"),
            (certify_bound, (3, 3, 7), "girth target must be 6 or 8, got 7"),
        ],
    )
    def test_bounds_checks_sizes_and_girth(self, call, args, message):
        with pytest.raises(ValueError) as exc:
            call(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("call", [max_size, certify_bound])
    def test_class_above_the_witness_limit_is_refused(self, monkeypatch, call):
        # The witness is built one list per vertex, so a class larger than
        # graphcore.from_json accepts is refused before the search starts.
        # Every build path, _from_lines included, ends in _assemble.
        def no_witness(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(graphcore, "_assemble", no_witness)
        big = graphcore.MAX_JSON_CLASS_SIZE + 1
        for v, w in ((big, 1), (1, big)):
            with pytest.raises(ValueError, match=f"at most {big - 1} vertices, got v={v} w={w}"):
                call(v, w, 8, max_nodes=1)

    @pytest.mark.parametrize("call", [max_size, certify_bound])
    @pytest.mark.parametrize("max_seconds", [0.0, -1.0, float("nan")])
    def test_time_budget_must_be_positive(self, call, max_seconds):
        with pytest.raises(ValueError, match="budgets must be positive"):
            call(3, 3, 8, max_seconds=max_seconds)

    def test_infinite_time_budget_sets_no_deadline(self):
        assert max_size(6, 5, 8, max_seconds=float("inf")).exhaustive
