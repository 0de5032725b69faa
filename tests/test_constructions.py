import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from girthbound import constructions as cn
from girthbound.bounds import (
    eval_cubic,
    eval_reiman,
    girth6_coarse_bound,
    girth8_coarse_bound,
    unbalanced_cap,
)
from girthbound.graphcore import Graph, contract, from_edges, girth, to_json, verify_weak_gq
from helpers import random_uncoloured, transpose, uncoloured_girth_oracle

# SHA-256 of the Graph JSON of every family member below, as the point-line
# classes built them before PG(2, q) and W(q) were enumerated directly, and
# of the uncoloured JSON {"n", "edges"} of the contractions of PG(2, q) and
# W(q), as contract built them while Graph still kept neighbour lists.
CONSTRUCTIONS = Path(__file__).parent / "data" / "constructions.json"


def pinned_members():
    """(name, graph) for every family member whose edge list is pinned."""
    calls = [(cn.pg2_incidence, q) for q in (2, 3, 5, 7, 11, 13)]
    calls += [(cn.wq_incidence, q) for q in (2, 3, 5, 7, 11, 13)]
    calls += [(cn.grid_incidence, t) for t in range(7)]
    for v in range(1, 7):
        lo = v * (v - 1) // 2
        calls += [(cn.unbalanced6, v, w) for w in range(max(lo, 1), lo + 6)]
    for v in range(2, 7):
        lo = v * v // 4
        calls += [(cn.unbalanced8, v, w) for w in range(lo, lo + 6)]
    calls += [(cn.complete_bipartite, a, b) for a, b in ((1, 3), (2, 2), (3, 4))]
    members = [(f"{f.__name__}({', '.join(map(str, args))})", f(*args)) for f, *args in calls]
    members.append(("expand(K_4)", cn.expand(Graph(4, combinations(range(4), 2)))))
    for f, qs in ((cn.pg2_incidence, (2, 3, 5, 7, 11, 13)), (cn.wq_incidence, (2, 3, 5, 7))):
        members += [(f"contract({f.__name__}({q}))", contract(f(q))) for q in qs]
    return members


def edge_list_hash(g) -> str:
    if isinstance(g, Graph):
        obj = {"n": g.n, "edges": [[a, b] for a, b in g.edges]}
    else:
        obj = to_json(g)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def test_edge_lists_match_the_pinned_hashes():
    pinned = json.loads(CONSTRUCTIONS.read_text())
    members = pinned_members()
    assert sorted(pinned) == sorted(name for name, _ in members)
    for name, g in members:
        assert edge_list_hash(g) == pinned[name], name
        if not isinstance(g, Graph):
            # the hashes cover the edges; equality covers adj_v and adj_w too
            assert g == from_edges(g.v, g.w, g.edges), name


def test_girth_is_the_same_on_the_transpose():
    # Each component's sources are its smaller class; swapping the classes
    # swaps which side that is, but not the girth.
    for name, g in pinned_members():
        if not isinstance(g, Graph):
            assert girth(g) == girth(transpose(g)), name


def normalize(vec, q):
    lead = next(c for c in vec if c % q)
    inv = pow(lead, -1, q)
    return tuple(c * inv % q for c in vec)


class TestProjectiveSpace:
    def test_point_counts(self):
        for q in (2, 3, 5, 7):
            assert len(cn._points(q, 3)) == q * q + q + 1
            assert len(cn._points(q, 4)) == (q + 1) * (q * q + 1)

    def test_normalization_canonical(self):
        # Every nonzero vector is a multiple of exactly one listed point,
        # and every listed point has leading entry 1.
        for q, dim in ((2, 3), (3, 4), (5, 3), (5, 4)):
            pts = cn._points(q, dim)
            assert all(normalize(p, q) == p for p in pts)
            multiples = [tuple(s * c % q for c in p) for p in pts for s in range(1, q)]
            assert len(set(multiples)) == len(multiples) == q ** dim - 1

    def test_line_has_q_plus_1_points(self):
        # Each line of W(q) is the point set of a totally isotropic
        # 2-subspace: q + 1 points, all spanned by any two of them.
        for q in (2, 3, 5, 7):
            pts = cn._points(q, 4)
            g = cn.wq_incidence(q)
            for nbrs in g.adj_w:
                line = {pts[i] for i in nbrs}
                x, y = pts[nbrs[0]], pts[nbrs[-1]]
                assert (x[0] * y[1] - x[1] * y[0] + x[2] * y[3] - x[3] * y[2]) % q == 0
                span = {
                    normalize([s * a + t * b for a, b in zip(x, y)], q)
                    for s in range(q)
                    for t in range(q)
                    if s or t
                }
                assert span == line and len(line) == q + 1


class TestExpand:
    def test_triangle_gives_hexagon(self):
        g = cn.expand(Graph(3, [(0, 1), (0, 2), (1, 2)]))
        assert (g.v, g.w, g.e) == (3, 3, 6)
        assert girth(g).girth == 6

    def test_square_gives_c8(self):
        g = cn.expand(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert (g.v, g.w, g.e) == (4, 4, 8)
        assert girth(g).girth == 8

    def test_single_edge(self):
        g = cn.expand(Graph(2, [(0, 1)]))
        assert (g.v, g.w, g.e) == (2, 1, 2)
        assert girth(g).girth is None

    def test_w_degrees_all_two_and_size_doubles(self):
        rng = random.Random(43)
        for _ in range(60):
            base = random_uncoloured(rng, max_n=8)
            g = cn.expand(base)
            assert g.e == 2 * base.e
            assert all(d == 2 for d in g.degrees_w())

    def test_girth_doubles(self):
        rng = random.Random(47)
        for _ in range(80):
            base = random_uncoloured(rng, max_n=8)
            expanded_girth = girth(cn.expand(base)).girth
            base_girth = uncoloured_girth_oracle(base)
            if base_girth is None:
                assert expanded_girth is None
            else:
                assert expanded_girth == 2 * base_girth


@pytest.mark.parametrize("family,v,w", [(cn.unbalanced6, 5, 12), (cn.unbalanced8, 6, 11)])
def test_unbalanced_member_is_built_once(monkeypatch, family, v, w):
    # The core's pairs go straight into the one expansion: no Graph is
    # validated on the way, and one call of the row builder builds the
    # member alone.
    from_lines = cn._from_lines
    built = []

    def counting_from_lines(*args):
        built.append(from_lines(*args))
        return built[-1]

    def no_graph(*args):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(cn, "_from_lines", counting_from_lines)
    monkeypatch.setattr(cn, "Graph", no_graph)
    g = family(v, w)
    assert built == [g] and built[0] is g


class TestGrid:
    def test_t1_is_c8(self):
        g = cn.grid_incidence(1)
        assert (g.v, g.w, g.e) == (4, 4, 8)
        assert eval_cubic(4, 4, 8) == 0

    def test_t2(self):
        g = cn.grid_incidence(2)
        assert (g.v, g.w, g.e) == (9, 6, 18)
        assert eval_cubic(9, 6, 18) == 0

    def test_t0_degenerate_path(self):
        g = cn.grid_incidence(0)
        assert (g.v, g.w, g.e) == (1, 2, 2)
        assert girth(g).girth is None

    def test_quadrangle_parameters_s1(self):
        # v = (t+1)(1+t), w = 2(1+t), e = 2(t+1)(1+t), girth 8, equality.
        for t in range(0, 7):
            g = cn.grid_incidence(t)
            assert g.v == (t + 1) * (1 + t)
            assert g.w == 2 * (1 + t)
            assert g.e == 2 * (t + 1) * (1 + t)
            assert eval_cubic(g.v, g.w, g.e) == 0
            if t >= 1:
                assert girth(g).girth == 8
                assert verify_weak_gq(g)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cn.grid_incidence(-1)


class TestProjectivePlane:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
    def test_parameters_and_girth(self, q):
        g = cn.pg2_incidence(q)
        n = q * q + q + 1
        assert (g.v, g.w, g.e) == (n, n, (q + 1) * n)
        assert set(g.degrees_v()) == {q + 1} == set(g.degrees_w())
        assert girth(g).girth == 6
        assert eval_reiman(n, n, g.e) == 0

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23])
    def test_incidence_is_a_vanishing_dot_product(self, q):
        # The definition, as the oracle: point i lies on line j exactly when
        # their coordinate vectors are orthogonal mod q.
        pts = cn._points(q, 3)
        want = [
            (i, j)
            for i, (p0, p1, p2) in enumerate(pts)
            for j, (l0, l1, l2) in enumerate(pts)
            if (p0 * l0 + p1 * l1 + p2 * l2) % q == 0
        ]
        assert cn.pg2_incidence(q).edges == tuple(want)

    def test_heawood(self):
        g = cn.pg2_incidence(2)
        assert (g.v, g.w, g.e) == (7, 7, 21)

    def test_rejects_prime_powers_and_composites(self):
        for q in (-3, 0, 1, 4, 6, 8, 9, 15):
            with pytest.raises(ValueError, match="not prime"):
                cn.pg2_incidence(q)

    def test_deterministic(self):
        assert cn.pg2_incidence(3).edges == cn.pg2_incidence(3).edges


class TestSymplecticQuadrangle:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19])
    def test_full_invariants(self, q):
        g = cn.wq_incidence(q)
        n = (q + 1) * (q * q + 1)
        assert (g.v, g.w, g.e) == (n, n, (q + 1) * n)
        assert set(g.degrees_v()) == {q + 1} == set(g.degrees_w())
        assert girth(g).girth == 8
        assert verify_weak_gq(g)
        assert eval_cubic(g.v, g.w, g.e) == 0

    def test_tutte_coxeter(self):
        g = cn.wq_incidence(2)
        assert (g.v, g.w, g.e) == (15, 15, 45)
        assert g.w == 15  # one W-vertex per isotropic line

    def test_wq3_equality_numbers(self):
        g = cn.wq_incidence(3)
        assert (g.v, g.w, g.e) == (40, 40, 160)
        assert eval_cubic(40, 40, 160) == 0

    def test_rejects_composites(self):
        for q in (-3, 0, 1, 4, 6, 9, 15):
            with pytest.raises(ValueError, match="not prime"):
                cn.wq_incidence(q)

    def test_deterministic(self):
        assert cn.wq_incidence(2).edges == cn.wq_incidence(2).edges


class TestUnbalanced6:
    def test_example_4_10(self):
        g = cn.unbalanced6(4, 10)
        assert g.e == 16 == girth6_coarse_bound(4, 10)
        assert girth(g).girth == 6

    def test_boundary_2_1(self):
        g = cn.unbalanced6(2, 1)
        assert (g.v, g.w, g.e) == (2, 1, 2)
        assert girth(g).girth is None

    def test_k3_expansion(self):
        g = cn.unbalanced6(3, 3)
        assert g.e == 6
        assert girth(g).girth == 6

    def test_threshold_rejected(self):
        with pytest.raises(ValueError):
            cn.unbalanced6(4, 5)  # needs w >= 6

    def test_meets_coarse_bound_without_c4(self):
        for v in range(1, 7):
            lo = v * (v - 1) // 2
            for w in range(max(lo, 1), lo + 6):
                g = cn.unbalanced6(v, w)
                assert g.e == v * (v - 1) // 2 + w == girth6_coarse_bound(v, w)
                assert girth(g).girth != 4


class TestUnbalanced8:
    def test_example_4_10(self):
        g = cn.unbalanced8(4, 10)
        assert g.e == 14 == unbalanced_cap(10, 4) == girth8_coarse_bound(4, 10)
        assert girth(g).girth == 8

    def test_c8_at_threshold(self):
        g = cn.unbalanced8(4, 4)
        assert g.e == 8
        assert girth(g).girth == 8

    def test_5_7(self):
        g = cn.unbalanced8(5, 7)
        assert g.e == 13
        assert girth(g).girth == 8

    def test_threshold_rejected(self):
        with pytest.raises(ValueError):
            cn.unbalanced8(4, 3)
        with pytest.raises(ValueError):
            cn.unbalanced8(1, 5)

    def test_meets_coarse_bound_without_c4_c6(self):
        for v in range(2, 7):
            lo = v * v // 4
            for w in range(lo, lo + 6):
                g = cn.unbalanced8(v, w)
                rep = girth(g)
                assert g.e == v * v // 4 + w == girth8_coarse_bound(v, w)
                assert rep.girth is None or rep.girth >= 8

    def test_pendant_count_matches_degree_deficit(self):
        # With w above the quarter-square threshold, at least ceil(w - v^2/4)
        # W-vertices must have degree <= 1, and the construction is tight.
        for v, w in ((4, 10), (5, 9), (6, 12)):
            g = cn.unbalanced8(v, w)
            deficit = w - v * v // 4
            low = sum(1 for d in g.degrees_w() if d <= 1)
            assert low == deficit


class TestCompleteBipartite:
    def test_star_equality(self):
        for w in (1, 3, 7):
            g = cn.complete_bipartite(1, w)
            assert eval_cubic(1, w, g.e) == 0

    def test_c4(self):
        g = cn.complete_bipartite(2, 2)
        assert girth(g).girth == 4

    def test_equality_case_w1(self):
        g = cn.complete_bipartite(3, 1)
        assert g.e == 3 and eval_cubic(3, 1, 3) == 0

    def test_counts(self):
        g = cn.complete_bipartite(3, 4)
        assert g.e == 12

    @pytest.mark.parametrize("a,b", [(-1, 3), (3, -1)])
    def test_negative_size_is_refused(self, a, b):
        with pytest.raises(ValueError) as exc:
            cn.complete_bipartite(a, b)
        assert str(exc.value) == f"class sizes must be nonnegative, got v={a} w={b}"


class TestContractExpandBridge:
    def test_expansion_of_k4_contracts_back(self):
        from itertools import combinations

        k4 = Graph(4, list(combinations(range(4), 2)))
        assert contract(cn.expand(k4)) == k4
