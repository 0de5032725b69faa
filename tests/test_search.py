import json
import multiprocessing
import os
import random
import time
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from girthbound import bounds, search
from girthbound.graphcore import contract, from_edges, girth
from girthbound.search import BudgetExhausted, certify_bound, max_size
from helpers import record_pools, short_path_exists

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
        # Full subset enumeration vs the pruned symmetry-broken search.
        for g in (6, 8):
            for v in range(1, 9):
                for w in range(1, 9):
                    if v * w > 16 or v > w:
                        continue
                    assert max_size(v, w, g).e_max == brute_force_max(v, w, g), (v, w, g)

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
        # A cut search whose witness meets the least bound is still optimal.
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
        "v,w,g,nodes", [(7, 5, 8, 16757), (7, 6, 6, 44964), (8, 3, 8, 95)]
    )
    def test_pinned_node_counts(self, v, w, g, nodes):
        # The tree a pruning change would alter; update with a reason.
        assert max_size(v, w, g).nodes_explored == nodes

    def test_certificates_match_the_table(self):
        for row in json.loads(CERTIFICATES.read_text()):
            cert = max_size(row["v"], row["w"], row["girth"])
            assert cert.exhaustive
            got = (cert.e_max, [list(e) for e in cert.witness.edges])
            assert got == (row["e_max"], row["edges"]), row

    def test_time_budget_is_honoured(self):
        start = time.monotonic()
        cert = max_size(30, 30, 6, max_seconds=1.0)
        assert time.monotonic() - start < 1.5
        assert not cert.exhaustive
        rep = girth(cert.witness)
        assert rep.girth is None or rep.girth >= 6

    def test_worker_count_does_not_change_certificate(self):
        full = search.DEFAULT_MAX_NODES
        for v, w, g, max_nodes in ((6, 4, 8, full), (8, 5, 8, full), (8, 3, 8, 50)):
            one = max_size(v, w, g, max_nodes=max_nodes, threads=1)
            two = max_size(v, w, g, max_nodes=max_nodes, threads=2)
            assert one.e_max == two.e_max
            assert one.nodes_explored == two.nodes_explored
            assert one.witness == two.witness
            assert one.exhaustive == two.exhaustive

    def test_pool_is_fed_only_as_its_workers_take_subtrees(self, monkeypatch):
        # A real pool of two workers on about 135,000 subtree roots: were
        # every root handed out before the first result is taken, the search
        # would overrun its 0.05 s budget by seconds.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        start = time.monotonic()
        cert = max_size(300, 3, 8, threads=2, max_seconds=0.05)
        assert time.monotonic() - start < 1.0
        assert not cert.exhaustive
        assert multiprocessing.active_children() == []  # the workers were ended

    def test_node_budget_exhaustion(self):
        cert = max_size(8, 3, 8, max_nodes=50)
        assert not cert.exhaustive
        assert cert.e_max <= 10
        rep = girth(cert.witness)
        assert rep.girth is None or rep.girth >= 8

    @pytest.mark.parametrize("max_nodes", [1, 5, 9, 10, 50, 1000])
    def test_node_budget_is_global(self, max_nodes):
        # 6x7 g8 takes 382,933 nodes, so every budget here cuts it, and a
        # cut search has spent exactly its budget.
        cert = max_size(6, 7, 8, max_nodes=max_nodes)
        assert not cert.exhaustive
        assert cert.nodes_explored == max_nodes
        assert cert.witness.e == cert.e_max

    def test_spent_budget_builds_no_subtree(self):
        # The root and the 1000 single-edge graphs already exceed 10 nodes,
        # so none of the ~1.5 million subtree roots may be built.
        tracemalloc.start()
        try:
            cert = max_size(1000, 3, 8, max_nodes=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cert.nodes_explored, cert.e_max, cert.exhaustive) == (10, 1, False)
        assert peak < 1 << 20

    def test_subtree_roots_are_generated_as_they_run(self, monkeypatch):
        # A search that ends in its first subtree holds no list of the rest.
        monkeypatch.setattr(search, "_explore_subtree", lambda args: (2, args[3], 1, False))
        tracemalloc.start()
        try:
            cert = max_size(1000, 3, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cert.nodes_explored, cert.e_max, cert.exhaustive) == (1002, 2, False)
        assert peak < 1 << 20

    def test_subtree_roots_are_generated_as_workers_take_them(self, monkeypatch):
        # The same with a pool: it is fed lazily, and it is left once the
        # first subtree ends the search.  A list of the 59,900 roots alone
        # would exceed the bound.
        monkeypatch.setattr(search, "_explore_subtree", lambda args: (2, args[3], 1, False))
        pools = record_pools(monkeypatch, 2)
        tracemalloc.start()
        try:
            cert = max_size(200, 3, 8, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cert.nodes_explored, cert.e_max, cert.exhaustive) == (202, 2, False)
        assert peak < 1 << 20
        assert [(p.processes, p.exited) for p in pools] == [(2, True)]

    @pytest.mark.parametrize(
        "v,w,threads,cpus,pools",
        [
            (2, 2, 100_000, 4, [4]),  # capped by the CPU count
            (2, 2, 100_000, None, []),  # CPU count unknown: one worker, no pool
            (2, 2, 8, 8, [5]),  # capped by the 1 + 4 subtrees
            (2, 1, 8, 8, []),  # a single subtree: no pool
            (6, 4, 3, 8, [3]),
            (6, 4, 1, 8, []),
        ],
    )
    def test_worker_count(self, monkeypatch, v, w, threads, cpus, pools):
        one = max_size(v, w, 8)
        made = record_pools(monkeypatch, cpus)
        cert = max_size(v, w, 8, threads=threads)
        assert [p.processes for p in made] == pools
        assert all(p.exited for p in made)
        assert (cert.e_max, cert.witness, cert.nodes_explored, cert.exhaustive) == (
            one.e_max, one.witness, one.nodes_explored, one.exhaustive
        )

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

    @pytest.mark.parametrize("call", [max_size, certify_bound])
    @pytest.mark.parametrize("max_seconds", [0.0, -1.0, float("nan")])
    def test_time_budget_must_be_positive(self, call, max_seconds):
        with pytest.raises(ValueError, match="budgets must be positive"):
            call(3, 3, 8, max_seconds=max_seconds)

    def test_infinite_time_budget_sets_no_deadline(self):
        assert max_size(6, 5, 8, max_seconds=float("inf")).exhaustive
