import random
import tracemalloc

import pytest

from girthbound import graphcore
from girthbound.constructions import grid_incidence, wq_incidence
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
    disjoint_union,
    girth_oracle,
    has_c4_oracle,
    has_c6_oracle,
    random_bipartite,
    random_biregular,
    random_girth_floor,
    random_min_degree2,
    random_tree,
    random_uncoloured,
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


class TestGirth:
    def test_c8(self):
        rep = girth(c8())
        assert rep.girth == 8 and not rep.has_c4 and not rep.has_c6

    def test_k22(self):
        rep = girth(k22())
        assert rep.girth == 4 and rep.has_c4 and not rep.has_c6

    def test_star_acyclic(self):
        rep = girth(star13())
        assert rep.girth is None and not rep.has_c4 and not rep.has_c6

    def test_c6_alongside_c4(self):
        # K_{3,3} has girth 4 but also hexagons; K_{2,3} has girth 4 and none.
        k33 = from_edges(3, 3, [(i, j) for i in range(3) for j in range(3)])
        rep = girth(k33)
        assert rep.girth == 4 and rep.has_c4 and rep.has_c6
        k23 = from_edges(2, 3, [(i, j) for i in range(2) for j in range(3)])
        rep = girth(k23)
        assert rep.girth == 4 and rep.has_c4 and not rep.has_c6

    def test_empty_graph(self):
        rep = girth(from_edges(0, 0, []))
        assert rep.girth is None

    def test_against_edge_removal_oracle(self):
        rng = random.Random(11)
        for _ in range(250):
            g = random_bipartite(rng, max_side=8)
            assert girth(g).girth == girth_oracle(g)

    def test_flags_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(120):
            g = random_bipartite(rng, max_side=6)
            rep = girth(g)
            assert rep.has_c4 == has_c4_oracle(g)
            assert rep.has_c6 == has_c6_oracle(g)

    def test_disjoint_unions_against_oracles(self):
        rng = random.Random(19)
        for _ in range(300):
            g = disjoint_union(random_part(rng, 6) for _ in range(rng.randint(1, 5)))
            rep = girth(g)
            assert rep.girth == girth_oracle(g)
            assert rep.has_c4 == has_c4_oracle(g)

    def test_disjoint_union_flags_against_brute_force(self):
        # Small enough for the brute-force 6-cycle oracle.
        rng = random.Random(23)
        for _ in range(150):
            g = disjoint_union(random_part(rng, 3) for _ in range(rng.randint(1, 3)))
            if g.v > 9 or g.w > 9:
                continue
            rep = girth(g)
            assert rep.girth == girth_oracle(g)
            assert rep.has_c4 == has_c4_oracle(g)
            assert rep.has_c6 == has_c6_oracle(g)

    def test_c6_in_another_component_than_c4(self):
        # The 4-cycle is found first; the hexagon lives in a later component.
        hexagon = from_edges(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        for parts in ((k22(), hexagon), (hexagon, k22()), (k22(), c8(), hexagon)):
            rep = girth(disjoint_union(parts))
            assert rep == GirthReport(girth=4, has_c4=True, has_c6=True)
        rep = girth(disjoint_union((c8(), k22(), star13())))
        assert rep == GirthReport(girth=4, has_c4=True, has_c6=False)

    @pytest.mark.parametrize("extra,want", [
        ([], GirthReport(girth=None, has_c4=False, has_c6=False)),
        ([(19998, 19999), (19999, 19998)], GirthReport(girth=4, has_c4=True, has_c6=False)),
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

    def test_girth_even_when_present(self):
        rng = random.Random(17)
        for _ in range(100):
            rep = girth(random_bipartite(rng, max_side=7))
            if rep.girth is not None:
                assert rep.girth % 2 == 0
                assert rep.has_c4 == (rep.girth == 4)
                if rep.has_c6:
                    assert rep.girth <= 6


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


class TestContract:
    def test_c8_gives_square(self):
        cg = contract(c8())
        assert cg.n == 4 and cg.e == 4
        assert uncoloured_cycle(cg)

    def test_star_single_class_vertex(self):
        cg = contract(star13())
        assert cg.n == 1 and cg.e == 0

    def test_roundtrip_with_expand(self):
        from girthbound.constructions import expand
        from helpers import random_uncoloured

        rng = random.Random(29)
        k3 = Graph(3, [(0, 1), (0, 2), (1, 2)])
        assert contract(expand(k3)) == k3
        for _ in range(60):
            g = random_uncoloured(rng, max_n=8)
            assert contract(expand(g)) == g

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
        from girthbound.constructions import pg2_incidence

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
