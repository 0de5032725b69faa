import copy
import pickle
import random
import re
import time
import tracemalloc
from itertools import combinations

import pytest

from girthbound import graphcore
from girthbound.constructions import (
    complete_bipartite,
    expand,
    grid_incidence,
    pg2_incidence,
    unbalanced6,
    unbalanced8,
    wq_incidence,
)
from girthbound.graphcore import (
    BipartiteGraph,
    GirthReport,
    Graph,
    contract,
    count_paths3,
    count_paths3_enumerate,
    from_edges,
    from_json,
    girth,
    prune_min_degree,
    to_json,
    verify_weak_gq,
)
from helpers import (
    cyclic_component_sizes,
    disjoint_union,
    girth_oracle,
    has_c4_oracle,
    has_c6_oracle,
    k_core_oracle,
    random_bipartite,
    random_biregular,
    random_girth_floor,
    random_min_degree2,
    random_tree,
    random_uncoloured,
    transpose,
    uncoloured_adjacency,
    weak_gq_oracle,
)


def c8() -> BipartiteGraph:
    return from_edges(4, 4, [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)])


def star13() -> BipartiteGraph:
    return from_edges(1, 3, [(0, 0), (0, 1), (0, 2)])


def k22() -> BipartiteGraph:
    return from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def skewed(rng: random.Random, long_side: int, short_side: int) -> BipartiteGraph:
    """Random graph with one class several times the other (either way)."""
    a = rng.randint(short_side + 1, long_side)
    b = rng.randint(1, short_side)
    v, w = (a, b) if rng.random() < 0.5 else (b, a)
    pool = [(i, j) for i in range(v) for j in range(w)]
    return from_edges(v, w, rng.sample(pool, rng.randint(0, len(pool))))


def random_part(rng: random.Random, side: int) -> BipartiteGraph:
    """One component-ish part for disjoint unions: a random graph of some
    kind, a tree, isolated vertices, or a skewed graph."""
    kind = rng.randrange(6)
    if kind == 0:
        return random_bipartite(rng, max_side=side)
    if kind == 1:
        return random_girth_floor(rng, rng.choice((6, 8)), max_side=side)
    if kind == 2:
        return random_tree(rng, max_vertices=2 * side)
    if kind == 3:
        return from_edges(rng.randint(0, side), rng.randint(0, side), [])
    if kind == 4:
        return random_biregular(rng, max_side=side)
    return skewed(rng, long_side=2 * side, short_side=max(1, side // 3))


def cyclic_part(rng: random.Random, v_smaller: bool) -> BipartiteGraph:
    """A random girth-6 or girth-8 part with a cyclic component whose
    smaller class is V (v_smaller) or W."""
    while True:
        p = random_girth_floor(rng, rng.choice((6, 8)), max_side=8)
        for nv, nw in cyclic_component_sizes(p):
            if nv != nw:
                return p if (nv < nw) == v_smaller else transpose(p)


class TestFromEdges:
    def test_c8(self):
        g = c8()
        assert (g.v, g.w, g.e) == (4, 4, 8)
        assert g.degrees_v() == (2, 2, 2, 2) == g.degrees_w()

    def test_star(self):
        g = star13()
        assert (g.v, g.w, g.e) == (1, 3, 3)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 0\)"):
            from_edges(2, 2, [(0, 0), (0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 0\) out of range"):
            from_edges(2, 2, [(2, 0)])
        with pytest.raises(ValueError, match=r"\(0, -1\) out of range"):
            from_edges(2, 2, [(0, -1)])

    def test_a_line_out_of_order_or_range_is_rejected(self):
        # The internal builders' row builder: each line must ascend
        # strictly within range(v), which excludes a descending line, a
        # repeated index, a negative index and an index >= v.
        for line in ([1, 0], [0, 0], [-1, 1], [0, 3]):
            with pytest.raises(ValueError, match=re.escape(f"line {line} is not strictly")):
                graphcore._from_lines(3, [[0, 2], line])

    def test_lines_give_the_graph_of_their_edges(self):
        g = graphcore._from_lines(3, [[0, 2], [], [1]])
        assert g == from_edges(3, 3, [(2, 0), (1, 2), (0, 0)])
        assert g.adj_w == ((0, 2), (), (1,))

    def test_edges_and_adjacency_agree(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_bipartite(rng, max_side=8)
            rebuilt = {(i, j) for i in range(g.v) for j in g.adj_v[i]}
            assert rebuilt == set(g.edges)
            rebuilt_w = {(i, j) for j in range(g.w) for i in g.adj_w[j]}
            assert rebuilt_w == set(g.edges)
            assert sum(g.degrees_v()) == g.e == sum(g.degrees_w())

    def test_adjacency_lists_ascend(self):
        # Both classes build them from the sorted edge list, unsorted.
        rng = random.Random(11)
        for _ in range(200):
            g = random_bipartite(rng)
            assert all(list(nbrs) == sorted(nbrs) for nbrs in g.adj_v + g.adj_w)


class TestUncolouredGraph:
    def test_pairs_in_any_order_and_orientation_give_the_sorted_edges(self):
        rng = random.Random(13)
        for _ in range(200):
            u = random_uncoloured(rng, max_n=12)
            pairs = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in reversed(u.edges)]
            flipped = Graph(u.n, pairs)
            assert flipped == u
            assert flipped.edges == tuple(sorted(u.edges))
            assert all(a < b for a, b in flipped.edges)

    def test_holds_only_its_vertex_count_and_edges(self):
        g = Graph(3, iter([(2, 0), (1, 0)]))
        assert (g.n, g.edges, g.e) == (3, ((0, 1), (0, 2)), 2)
        assert not hasattr(g, "adj")

    @pytest.mark.parametrize(
        "n,pairs,message",
        [
            (-1, [], r"vertex count must be nonnegative, got -1"),
            (2, [(0, 2)], r"edge \(0, 2\) out of range for n=2"),
            (2, [(1, 1)], r"loop edge \(1, 1\) not allowed"),
            (2, [(0, 1), (1, 0)], r"duplicate edge \(1, 0\)"),
        ],
    )
    def test_invalid_pairs_rejected(self, n, pairs, message):
        with pytest.raises(ValueError, match=message):
            Graph(n, pairs)


def matching_union(n: int, seed: int) -> BipartiteGraph:
    """The union of three seeded perfect matchings of n + n vertices."""
    rng = random.Random(seed)
    pairs = set()
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        pairs.update(enumerate(perm))
    return from_edges(n, n, pairs)


@pytest.fixture(scope="module")
def girth_corpus():
    """20,000 random graphs of 1-4 parts with up to 12 vertices per class
    in a part, then every construction family and its transpose."""
    rng = random.Random(30)
    graphs = [
        disjoint_union([random_part(rng, 12) for _ in range(rng.randint(1, 4))])
        for _ in range(20000)
    ]
    families = [pg2_incidence(q) for q in (2, 3, 5, 7, 11, 13)]
    families += [wq_incidence(q) for q in (2, 3, 5, 7)]
    families += [grid_incidence(t) for t in range(6)]
    families += [unbalanced6(b, a) for b in (3, 4, 5) for a in (b * (b - 1) // 2, 40)]
    families += [unbalanced8(b, a) for b in (2, 4, 6) for a in (b * b // 4, 40)]
    families += [complete_bipartite(a, b) for a in (1, 2, 5) for b in (1, 3, 5)]
    families += [expand(contract(g)) for g in (pg2_incidence(2), wq_incidence(2))]
    return graphs + families + [transpose(g) for g in families]


class TestGirth:
    def test_c8(self):
        rep = girth(c8())
        assert rep.girth == 8

    def test_k22(self):
        assert girth(k22()).girth == 4

    def test_star_acyclic(self):
        assert girth(star13()).girth is None

    def test_c6_alongside_c4(self):
        # K_{3,3} has girth 4 but also hexagons; K_{2,3} has girth 4 and none.
        assert girth(complete_bipartite(3, 3)).girth == 4
        assert girth(complete_bipartite(2, 3)).girth == 4

    @pytest.mark.parametrize("with_hexagon", [False, True])
    def test_k2n_takes_linear_time(self, with_hexagon):
        # K_{2,n} has girth 4 and no 6-cycle, so a search for one that walks
        # every path on 5 vertices meets only dead ends: 11 s at n = 2,000.
        hexagon = from_edges(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        g = complete_bipartite(2, 2000)
        if with_hexagon:
            g = disjoint_union((g, hexagon))
        start = time.perf_counter()
        rep = girth(g)
        assert time.perf_counter() - start < 1.0
        assert rep.girth == 4

    def test_empty_graph(self):
        rep = girth(from_edges(0, 0, []))
        assert rep.girth is None

    def test_against_edge_removal_oracle(self):
        rng = random.Random(11)
        for _ in range(250):
            g = random_bipartite(rng, max_side=8)
            assert girth(g).girth == girth_oracle(g)

    def test_short_cycles_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(120):
            g = random_bipartite(rng, max_side=6)
            rep = girth(g)
            assert (rep.girth == 4) == has_c4_oracle(g)
            assert (rep.girth == 6) == (not has_c4_oracle(g) and has_c6_oracle(g))

    def test_disjoint_unions_against_oracles(self):
        rng = random.Random(19)
        for _ in range(300):
            g = disjoint_union(random_part(rng, 6) for _ in range(rng.randint(1, 5)))
            rep = girth(g)
            assert rep.girth == girth_oracle(g)
            assert (rep.girth == 4) == has_c4_oracle(g)

    def test_disjoint_union_short_cycles_against_brute_force(self):
        # Small enough for the brute-force 6-cycle oracle.
        rng = random.Random(23)
        for _ in range(150):
            g = disjoint_union(random_part(rng, 3) for _ in range(rng.randint(1, 3)))
            if g.v > 9 or g.w > 9:
                continue
            rep = girth(g)
            assert rep.girth == girth_oracle(g)
            assert (rep.girth == 4) == has_c4_oracle(g)
            assert (rep.girth == 6) == (not has_c4_oracle(g) and has_c6_oracle(g))

    def test_c6_in_another_component_than_c4(self):
        # The 4-cycle is found first; the hexagon lives in a later component.
        hexagon = from_edges(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        for parts in ((k22(), hexagon), (hexagon, k22()), (k22(), c8(), hexagon)):
            rep = girth(disjoint_union(parts))
            assert rep == GirthReport(girth=4)
        rep = girth(disjoint_union((c8(), k22(), star13())))
        assert rep == GirthReport(girth=4)

    @pytest.mark.parametrize("extra,want", [
        ([], GirthReport(girth=None)),
        ([(19998, 19999), (19999, 19998)], GirthReport(girth=4)),
    ])
    def test_large_sparse_graph(self, extra, want):
        # A 20,000-edge perfect matching, alone or with one 4-cycle: the
        # work and memory must follow the components, not v * w.
        g = from_edges(20000, 20000, [(i, i) for i in range(20000)] + extra)
        tracemalloc.start()
        try:
            rep = girth(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep == want
        assert peak < 4 * 2 ** 20

    def test_many_sources_are_swept_in_batches(self):
        # 20,000 sources in one component: four sweeps of at most 4,096
        # sources find 6, 6, 6 and then 4, with a peak of about 21 MiB.  One
        # sweep over every source, with masks up to 20,000 bits wide at
        # each vertex, peaked at 135 MiB.
        g = matching_union(20000, 7)
        tracemalloc.start()
        try:
            rep = girth(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep == GirthReport(girth=4)
        assert peak < 25 * 2 ** 20

    @pytest.mark.parametrize("batch", [1, 2, 5])
    def test_the_batch_size_does_not_change_the_girth(self, girth_corpus, monkeypatch, batch):
        # Every graph here has at most 4,096 sources per component, so the
        # default batch sweeps all of them at once.
        want = [girth(g) for g in girth_corpus]
        monkeypatch.setattr(graphcore, "_SOURCE_BATCH", batch)
        assert [girth(g) for g in girth_corpus] == want

    def test_a_connected_graph_is_swept_on_its_own_adjacency(self):
        # One component spanning g is g itself, with no relabelled copy; an
        # isolated vertex sends the same edges down the relabelling path.
        g = wq_incidence(3)
        ((adj_v, adj_w),) = graphcore._cyclic_components(g)
        assert adj_v is g.adj_v and adj_w is g.adj_w
        ((adj_v, adj_w),) = graphcore._cyclic_components(from_edges(g.v + 1, g.w, g.edges))
        assert isinstance(adj_v, list) and (len(adj_v), len(adj_w)) == (g.v, g.w)

    def test_several_cyclic_components_against_the_oracle(self):
        # Each component's sweep stops once twice its level reaches the best
        # girth of the components before it, so a later, shorter cycle must
        # still be found under that limit; sparse girth-6 and girth-8 parts
        # make the sweeps go deep.
        rng = random.Random(29)
        checked = 0
        while checked < 120:
            parts = [
                random_girth_floor(rng, rng.choice((6, 8)), max_side=12)
                if rng.random() < 0.7
                else random_bipartite(rng, max_side=12)
                for _ in range(rng.randint(2, 4))
            ]
            if sum(girth_oracle(p) is not None for p in parts) < 2:
                continue
            g = disjoint_union(parts)
            assert girth(g).girth == girth_oracle(g)
            checked += 1

    @pytest.mark.parametrize("edges", [
        # The only 4-cycle runs through source 0 (V-vertex 0, in the class
        # of 4 against 5); a hexagon also passes through it, and must not be
        # what the sweep reports.
        [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 2), (2, 3), (3, 3), (3, 4), (0, 4)],
        # Source 0 lies only on a hexagon; the 4-cycle runs through other
        # sources, whose detection at level 2 ends the sweep before source
        # 0's at level 3.
        [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (2, 3), (3, 3), (3, 4), (4, 3), (4, 4)],
    ])
    def test_four_cycle_with_a_retired_source(self, edges):
        g = from_edges(5, 5, edges)
        assert girth(g) == GirthReport(girth=4)
        assert girth_oracle(g) == 4

    def test_transpose_with_the_source_class_varying_by_component(self):
        # Each component's sources are its smaller class; every union here
        # has a cyclic component whose smaller class is V and one whose
        # smaller class is W, in random order among random other parts.
        rng = random.Random(31)
        for _ in range(2000):
            parts = [cyclic_part(rng, True), cyclic_part(rng, False)]
            parts += [random_part(rng, 6) for _ in range(rng.randint(0, 2))]
            rng.shuffle(parts)
            g = disjoint_union(parts)
            assert girth(g) == girth(transpose(g)), g.edges

    def test_components_with_opposite_source_classes(self):
        # unbalanced8(4, 10) (girth 8, sources in V), its transpose (sources
        # in W), then a hexagon, whose girth 6 must still be found.
        hexagon = from_edges(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        u = unbalanced8(4, 10)
        g = disjoint_union((u, transpose(u), hexagon))
        assert girth(g) == girth(transpose(g)) == GirthReport(girth=6)
        assert girth(u) == girth(transpose(u)) == GirthReport(girth=8)

    def test_girth_even_when_present(self):
        rng = random.Random(17)
        for _ in range(100):
            rep = girth(random_bipartite(rng, max_side=7))
            if rep.girth is not None:
                assert rep.girth % 2 == 0


class TestPaths3:
    def test_known_counts(self):
        assert count_paths3(c8()) == 8 == count_paths3_enumerate(c8())
        assert count_paths3(star13()) == 0
        assert count_paths3(k22()) == 4 == count_paths3_enumerate(k22())

    def test_empty(self):
        assert count_paths3_enumerate(from_edges(0, 0, [])) == 0

    def test_grid_cross_check(self):
        from girthbound.constructions import grid_incidence

        g = grid_incidence(2)
        assert (g.v, g.w, g.e) == (9, 6, 18)
        assert count_paths3(g) == count_paths3_enumerate(g)

    def test_formula_equals_enumeration_random(self):
        rng = random.Random(19)
        for _ in range(300):
            g = random_bipartite(rng, max_side=12)
            if g.v + g.w > 24:
                continue
            assert count_paths3(g) == count_paths3_enumerate(g)


class TestPrune:
    def test_star_collapses(self):
        residual, removed = prune_min_degree(star13(), 2)
        assert (residual.v, residual.w, residual.e) == (0, 0, 0)
        assert removed == 3

    def test_c8_untouched(self):
        residual, removed = prune_min_degree(c8(), 2)
        assert residual == c8() and removed == 0

    def test_pendant_stripped(self):
        g = from_edges(4, 5, list(c8().edges) + [(0, 4)])
        residual, removed = prune_min_degree(g, 2)
        assert residual == c8() and removed == 1

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            prune_min_degree(c8(), 0)

    def test_residual_has_min_degree(self):
        rng = random.Random(23)
        for _ in range(100):
            g = random_bipartite(rng, max_side=8)
            k = rng.randint(1, 3)
            residual, removed = prune_min_degree(g, k)
            assert removed == g.e - residual.e
            if residual.v + residual.w:
                assert residual.min_degree() >= k

    def test_matches_the_k_core_oracle(self):
        # The survivors are read off the final degrees: nothing beyond the
        # k-core may be deleted, and the reindexing must keep their order.
        rng = random.Random(43)
        for _ in range(3000):
            g = random_bipartite(rng, max_side=9)
            k = rng.randint(1, 4)
            assert prune_min_degree(g, k) == k_core_oracle(g, k)


class TestContract:
    def test_c8_gives_square(self):
        cg = contract(c8())
        assert cg.n == 4 and cg.e == 4
        assert uncoloured_cycle(cg)

    def test_star_single_class_vertex(self):
        cg = contract(star13())
        assert cg.n == 1 and cg.e == 0

    def test_roundtrip_with_expand(self):
        from helpers import random_uncoloured

        rng = random.Random(29)
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert contract(expand(k3)) == k3
        for _ in range(60):
            g = random_uncoloured(rng, max_n=8)
            assert contract(expand(g)) == g

    def test_equals_the_pairwise_definition(self):
        # Graphs with 4-cycles too: two V-vertices with several common
        # W-neighbours are joined once.
        rng = random.Random(43)
        for _ in range(300):
            g = random_bipartite(rng, max_side=9)
            pairs = {pair for nbrs in g.adj_w for pair in combinations(nbrs, 2)}
            cg = contract(g)
            assert cg == Graph(g.v, pairs)
            assert type(cg.edges) is tuple and all(type(e) is tuple for e in cg.edges)

    def test_peak_memory_is_about_the_result(self):
        # W(7): 400 lines of 8 points, so 11,200 contracted pairs and about
        # 600 KiB kept.  Building the pairs twice, once as a set and once
        # more to re-validate them, peaked at 2,315 KiB.
        g = wq_incidence(7)
        tracemalloc.start()
        try:
            cg = contract(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cg.e == 11200
        assert peak < 1 << 20

    def test_c4_free_size_formula(self):
        from math import comb

        rng = random.Random(31)
        for _ in range(80):
            g = random_girth_floor(rng, 6, max_side=8)
            cg = contract(g)
            assert cg.e == sum(comb(len(nb), 2) for nb in g.adj_w)
            assert cg.e <= comb(g.v, 2)

    def test_degree2_propositions(self):
        # No 4-cycle and min degree >= 2 forces w <= C(v,2) and v <= C(w,2);
        # without 6-cycles as well, the quarter-square versions hold.
        from math import comb

        rng = random.Random(37)
        for _ in range(120):
            g = random_girth_floor(rng, 6, max_side=9)
            if g.v and g.w and g.min_degree() >= 2:
                assert g.w <= comb(g.v, 2) and g.v <= comb(g.w, 2)
        for _ in range(120):
            g = random_girth_floor(rng, 8, max_side=9)
            if g.v and g.w and g.min_degree() >= 2:
                assert g.w <= g.v * g.v // 4 and g.v <= g.w * g.w // 4


def uncoloured_cycle(g: Graph) -> bool:
    return all(len(nb) == 2 for nb in uncoloured_adjacency(g))


class TestWeakGQ:
    def test_c8_is_trivial_quadrangle(self):
        assert verify_weak_gq(c8())

    def test_tutte_coxeter(self):
        from girthbound.constructions import wq_incidence

        assert verify_weak_gq(wq_incidence(2))

    def test_path_fails(self):
        p4 = from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
        assert not verify_weak_gq(p4)

    def test_girth_six_fails(self):

        assert not verify_weak_gq(pg2_incidence(2))

    def test_two_disjoint_c8_fail(self):
        # Degree and girth conditions hold but cross pairs have no paths.
        base = c8()
        shifted = [(i + 4, j + 4) for i, j in base.edges]
        g = from_edges(8, 8, list(base.edges) + shifted)
        assert not verify_weak_gq(g)

    def test_equality_direction(self):
        from girthbound.bounds import eval_cubic
        from girthbound.constructions import grid_incidence, wq_incidence

        for g in (c8(), grid_incidence(3), wq_incidence(3)):
            assert verify_weak_gq(g)
            assert eval_cubic(g.v, g.w, g.e) == 0


    def test_against_path_oracle_random(self):
        rng = random.Random(31)
        makers = (
            lambda: random_bipartite(rng, max_side=8),
            lambda: random_girth_floor(rng, 8, max_side=10),
            lambda: random_min_degree2(rng, max_side=8),
            lambda: random_biregular(rng, max_side=8),
        )
        for k in range(800):
            g = makers[k % len(makers)]()
            assert verify_weak_gq(g) == weak_gq_oracle(g)

    def test_against_path_oracle_families(self):
        two_c8 = disjoint_union((c8(), c8()))
        cases = [wq_incidence(2), wq_incidence(3), two_c8]
        cases += [grid_incidence(t) for t in (1, 2, 3)]
        for g in cases:
            assert verify_weak_gq(g) == weak_gq_oracle(g)
        assert not verify_weak_gq(two_c8)

    @pytest.mark.parametrize("base", [wq_incidence(2), grid_incidence(2)], ids=["W(2)", "grid2"])
    def test_against_path_oracle_near_misses(self, base):
        # Every single-edge deletion, and a sample of single-edge additions,
        # of a weak quadrangle: positives and near-negatives side by side.
        for drop in base.edges:
            g = from_edges(base.v, base.w, [e for e in base.edges if e != drop])
            assert verify_weak_gq(g) == weak_gq_oracle(g)
        present = set(base.edges)
        absent = [(i, j) for i in range(base.v) for j in range(base.w) if (i, j) not in present]
        for add in random.Random(37).sample(absent, min(40, len(absent))):
            g = from_edges(base.v, base.w, list(base.edges) + [add])
            assert verify_weak_gq(g) == weak_gq_oracle(g)

    @pytest.mark.parametrize("base", [wq_incidence(2), wq_incidence(3)], ids=["W(2)", "W(3)"])
    def test_degree_preserving_swaps_fail(self, base):
        # Swapping the ends of two edges keeps every degree, so the walk
        # count of every W-vertex still equals v - d(j); only the cover test
        # sees that some non-adjacent pair lost its path of length 3.
        rng = random.Random(41)
        present = set(base.edges)
        swaps = [
            ((i1, j1), (i2, j2))
            for (i1, j1), (i2, j2) in combinations(base.edges, 2)
            if i1 != i2 and j1 != j2 and (i1, j2) not in present and (i2, j1) not in present
        ]
        for (i1, j1), (i2, j2) in rng.sample(swaps, 30):
            edges = present - {(i1, j1), (i2, j2)} | {(i1, j2), (i2, j1)}
            g = from_edges(base.v, base.w, edges)
            assert g.degrees_v() == base.degrees_v() and g.degrees_w() == base.degrees_w()
            assert not verify_weak_gq(g)
            assert not weak_gq_oracle(g)

    def test_needs_no_girth_search(self, monkeypatch):
        def refuse(g):
            raise AssertionError("verify_weak_gq ran a girth search")

        monkeypatch.setattr(graphcore, "girth", refuse)
        assert verify_weak_gq(wq_incidence(3))
        assert not verify_weak_gq(from_edges(4, 4, [(i, j) for i in range(4) for j in range(4)]))

    def test_count_runs_before_any_bitmask(self):
        # 2,500 disjoint 8-cycles fail the count at the first W-vertex, so
        # the cover test's bitmasks, Theta(v*w) bits (over 12 MB here), are
        # never built.
        g = disjoint_union([c8()] * 2500)
        tracemalloc.start()
        try:
            verdict = verify_weak_gq(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict is False
        assert peak < 2 ** 20


class TestJson:
    def test_roundtrip(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_bipartite(rng, max_side=7)
            assert from_json(to_json(g)) == g

    def test_malformed(self):
        with pytest.raises(ValueError, match="missing field"):
            from_json({"v": 1, "w": 1})
        with pytest.raises(ValueError, match="must be integers"):
            from_json({"v": "1", "w": 1, "edges": []})
        with pytest.raises(ValueError, match="2-element integer array"):
            from_json({"v": 1, "w": 1, "edges": [[0]]})
        with pytest.raises(ValueError, match="duplicate edge"):
            from_json({"v": 1, "w": 1, "edges": [[0, 0], [0, 0]]})
        with pytest.raises(ValueError, match="must be an object"):
            from_json([1, 2])

    def test_class_size_limit(self, monkeypatch):
        # Rejected before any graph is built: building one would allocate
        # a list per vertex.
        def refuse(*args):
            raise AssertionError("from_json built a graph")

        monkeypatch.setattr(graphcore, "from_edges", refuse)
        limit = graphcore.MAX_JSON_CLASS_SIZE
        for v, w in ((10 ** 12, 1), (1, limit + 1)):
            with pytest.raises(ValueError, match="exceed the limit"):
                from_json({"v": v, "w": w, "edges": []})


class TestImmutability:
    def test_graph_value_semantics(self):
        g1 = c8()
        g2 = from_edges(4, 4, list(reversed(g1.edges)))
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != from_edges(4, 4, list(g1.edges)[:-1])

    def test_replace_and_make_cannot_skip_the_checks(self):
        # namedtuple's _replace and _make would build a graph whose
        # adjacency contradicts its edges; both refuse.
        g = from_edges(2, 2, [(0, 0)])
        with pytest.raises(TypeError, match=r"BipartiteGraph\(v, w, edges\)"):
            g._replace(edges=((1, 1),))
        with pytest.raises(TypeError, match=r"BipartiteGraph\(v, w, edges\)"):
            BipartiteGraph._make((2, 2, ((1, 1),), ((0,), ()), ((0,), ())))
        assert g == from_edges(2, 2, [(0, 0)]) and g.adj_v == ((0,), ())
        # A Graph would take edges out of range or a loop, which expand
        # then misreports as a duplicate edge.
        h = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(TypeError, match=r"Graph\(n, edges\)"):
            h._replace(n=1)
        with pytest.raises(TypeError, match=r"Graph\(n, edges\)"):
            Graph._make((2, ((1, 1), (0, 5))))
        assert h == Graph(3, [(1, 2), (0, 1)]) and h.n == 3

    @pytest.mark.parametrize(
        "forged, message",
        [
            (tuple.__new__(Graph, (2, ((1, 1), (0, 5)))), "loop edge"),
            (tuple.__new__(BipartiteGraph, (1, 1, ((0, 3),), ((3,),), ((0,),))), "out of range"),
        ],
        ids=["Graph", "BipartiteGraph"],
    )
    def test_pickle_and_copy_rebuild_through_the_checks(self, forged, message):
        # A graph forged past its constructor does not survive a rebuild.
        for rebuild in (lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
            with pytest.raises(ValueError, match=message):
                rebuild(forged)
