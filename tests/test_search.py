import json
import random
import sys
import time
from functools import cmp_to_key
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
        # v > w too: columns 0 and 1 then have the most rows that the
        # class-V symmetry break fixes; 5x4, 6x3 and 7x3 take those cases
        # past 16 cells.  The uncapped search (certify_bound's) runs to the
        # end of its tree, so a stop at the bound cannot hide an optimum
        # that the symmetry break lost.
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
            rep = girth(wt)
            assert not rep.has_c4
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
        for v, w in ((3, 5), (4, 6), (2, 5)):
            assert max_size(v, w, 8).e_max == max_size(w, v, 8).e_max
            assert max_size(v, w, 6).e_max == max_size(w, v, 6).e_max

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


class TestBoundCertification:
    def test_examples(self):
        assert certify_bound(5, 5, 8)
        assert max_size(5, 5, 8).e_max == bounds.cubic_max_e(5, 5) == 10
        assert certify_bound(4, 4, 6)
        assert max_size(4, 4, 6).e_max == 9 == bounds.reiman_max_e(4, 4)
        assert certify_bound(3, 3, 6)
        assert max_size(3, 3, 6).e_max == 6 == bounds.reiman_max_e(3, 3)

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
        # The search stops at the least bound, here after 18 nodes.
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
            (7, 5, 8, 1223),
            (7, 6, 6, 2220),
            (9, 6, 8, 44907),
            (8, 3, 8, 11),
            (300, 3, 8, 303),
            # The maximum, found under (0, 0), (1, 0), prunes the two later
            # branches; restarting each branch with no best graph takes 2,299.
            (6, 8, 6, 2227),
        ],
    )
    def test_pinned_node_counts(self, v, w, g, nodes):
        # The tree a pruning change would alter; update with a reason.
        assert max_size(v, w, g).nodes_explored == nodes

    def test_instance_out_of_reach_without_the_class_v_symmetry_break(self):
        # g8 8x7 lies below every bound, so only the completed tree proves
        # 17; with column 0 free it took 12,217,708 nodes, and with only
        # column 0 fixed 380,176.
        cert = max_size(8, 7, 8)
        assert (cert.e_max, cert.exhaustive, cert.nodes_explored) == (17, True, 57206)
        assert cert.optimality == "exhaustive"

    def test_g6_9x9_is_proven_within_a_million_nodes(self):
        # 29 lies below the Reiman bound of 30, so only the completed tree
        # proves it; with only column 0 fixed it took 3,705,156 nodes.
        cert = max_size(9, 9, 6, max_nodes=1_000_000)
        assert (cert.e_max, cert.exhaustive, cert.optimality) == (29, True, "exhaustive")

    def test_search_stops_when_its_best_graph_meets_the_bound(self):
        # g8 8x3 reaches its bound of 10 at its 11th node and stops there,
        # proven; a budget one node short leaves it cut at 9 edges.
        assert bounds.bound_report(8, 3, 8).binding_value == 10
        cut = max_size(8, 3, 8, max_nodes=10)
        assert (cut.e_max, cut.exhaustive, cut.nodes_explored) == (9, False, 10)
        done = max_size(8, 3, 8, max_nodes=11)
        assert (done.e_max, done.exhaustive, done.nodes_explored) == (10, True, 11)
        assert done.witness == max_size(8, 3, 8).witness

    def test_certificates_match_the_table(self):
        for row in json.loads(CERTIFICATES.read_text()):
            cert = max_size(row["v"], row["w"], row["girth"])
            assert cert.exhaustive
            got = (cert.e_max, [list(e) for e in cert.witness.edges])
            assert got == (row["e_max"], row["edges"]), row

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
        # 6x7 g8 takes 5,921 nodes, so every budget here cuts it, and a
        # cut search has spent exactly its budget.
        cert = max_size(6, 7, 8, max_nodes=max_nodes)
        assert not cert.exhaustive
        assert cert.nodes_explored == max_nodes
        assert cert.witness.e == cert.e_max

    def test_no_graph_is_credited_before_its_node_is_counted(self, monkeypatch):
        # Each counted node adds at most one edge to its parent's graph, so
        # a search that credits only visited graphs has e_max < its nodes.
        for max_nodes in range(1, 51):
            cert = max_size(6, 7, 8, max_nodes=max_nodes)
            assert cert.e_max < cert.nodes_explored == max_nodes, max_nodes
            assert cert.witness.e == cert.e_max
        # A clock that moves a second per reading: the deadline has passed
        # before the first node, and the search stops at its first clock
        # check, after the root and 1,024 nodes of the tree.
        clock = iter(range(10 ** 6))
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(clock)))
        cert = max_size(6, 7, 8, max_seconds=0.5)
        assert (cert.e_max, cert.nodes_explored, cert.exhaustive) == (13, 1025, False)
        assert cert.e_max < cert.nodes_explored
        assert cert.witness.e == cert.e_max

    def test_explore_returns_masks_only_up_to_the_last_column_in_use(self):
        # A million columns, of which the best graph after 500 nodes uses
        # 498: the result holds no mask for the unused rest.
        cap = bounds.bound_report(3, 10 ** 6, 8).binding_value
        best_e, masks, nodes, done = search._explore(3, 10 ** 6, 8, cap, 500, float("inf"))
        assert (nodes, done) == (500, False)
        assert 0 < len(masks) <= best_e
        assert sum(mask.bit_count() for mask in masks) == best_e
        assert masks[-1]  # the last column in use is not empty

    def test_search_past_the_recursion_limit_is_a_value_error(self):
        limit = sys.getrecursionlimit()
        for call in (max_size, certify_bound):
            with pytest.raises(ValueError) as exc:
                call(1000, 3, 8)
            assert str(exc.value) == (
                "search on v=1000 w=3 recurses once per edge, past Python's"
                f" recursion limit of {limit}"
            )

    def test_search_below_the_recursion_limit_is_unchanged(self):
        # One call per edge: 602 edges stay under the default limit of 1000.
        cert = max_size(600, 3, 8)
        assert (cert.e_max, cert.exhaustive, cert.nodes_explored) == (602, True, 603)

    def test_certify_raises_on_budget(self):
        with pytest.raises(BudgetExhausted):
            certify_bound(8, 3, 8, max_nodes=50)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_size(0, 3, 8)
        with pytest.raises(ValueError):
            max_size(3, 3, 7)
        with pytest.raises(ValueError):
            max_size(3, 3, 8, threads=0)
        with pytest.raises(ValueError):
            max_size(3, 3, 8, max_nodes=0)

    @pytest.mark.parametrize(
        "call,args,message",
        [
            (max_size, (0, 3, 8), "class sizes must be >= 1, got v=0 w=3"),
            (max_size, (3, 3, 7), "girth target must be 6 or 8, got 7"),
            (certify_bound, (3, 0, 6), "class sizes must be >= 1, got v=3 w=0"),
            (certify_bound, (3, 3, 7), "girth must be 6 or 8, got 7"),
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
        def no_witness(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(graphcore, "from_edges", no_witness)
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
