"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately use different algorithms from the library
(edge-removal girth, brute-force cycle pattern matching) so that agreement
is evidence, not tautology.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import re
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

from girthbound.graphcore import BipartiteGraph, Graph, from_edges


def random_bipartite(rng: random.Random, max_side: int = 12) -> BipartiteGraph:
    """Uniform class sizes, uniform edge count, uniform edge subset."""
    v = rng.randint(1, max_side)
    w = rng.randint(1, max_side)
    pool = [(i, j) for i in range(v) for j in range(w)]
    e = rng.randint(0, len(pool))
    return from_edges(v, w, rng.sample(pool, e))


def short_path_exists(adj_v, adj_w, i, j, limit) -> bool:
    """True iff dist(V_i, W_j) <= limit; used by girth-safe generators."""
    seen_v = {i}
    seen_w = set()
    frontier = [i]
    for depth in range(1, limit + 1, 2):
        layer_w = []
        for x in frontier:
            for y in adj_v[x]:
                if y == j:
                    return True
                if y not in seen_w:
                    seen_w.add(y)
                    layer_w.append(y)
        if depth + 2 > limit:
            return False
        frontier = []
        for y in layer_w:
            for x in adj_w[y]:
                if x not in seen_v:
                    seen_v.add(x)
                    frontier.append(x)
        if not frontier:
            return False
    return False


def random_girth_floor(rng: random.Random, min_girth: int, max_side: int = 12) -> BipartiteGraph:
    """Random graph with girth >= min_girth by girth-safe greedy addition."""
    v = rng.randint(1, max_side)
    w = rng.randint(1, max_side)
    pool = [(i, j) for i in range(v) for j in range(w)]
    rng.shuffle(pool)
    target = rng.randint(0, len(pool))
    adj_v: list[list[int]] = [[] for _ in range(v)]
    adj_w: list[list[int]] = [[] for _ in range(w)]
    chosen = []
    for i, j in pool:
        if len(chosen) >= target:
            break
        if not short_path_exists(adj_v, adj_w, i, j, min_girth - 2):
            chosen.append((i, j))
            adj_v[i].append(j)
            adj_w[j].append(i)
    return from_edges(v, w, chosen)


def random_min_degree2(rng: random.Random, max_side: int = 10) -> BipartiteGraph:
    """Random graph patched up to minimum degree 2 on both classes."""
    v = rng.randint(2, max_side)
    w = rng.randint(2, max_side)
    pool = [(i, j) for i in range(v) for j in range(w)]
    edges = set(rng.sample(pool, rng.randint(0, len(pool))))
    for i in range(v):
        have = [j for j in range(w) if (i, j) in edges]
        missing = [j for j in range(w) if (i, j) not in edges]
        rng.shuffle(missing)
        while len(have) < 2:
            j = missing.pop()
            edges.add((i, j))
            have.append(j)
    for j in range(w):
        have = [i for i in range(v) if (i, j) in edges]
        missing = [i for i in range(v) if (i, j) not in edges]
        rng.shuffle(missing)
        while len(have) < 2:
            i = missing.pop()
            edges.add((i, j))
            have.append(i)
    return from_edges(v, w, sorted(edges))


def random_biregular(rng: random.Random, max_side: int = 8) -> BipartiteGraph:
    """Random circulant-style biregular graph on equal class sizes."""
    n = rng.randint(1, max_side)
    d = rng.randint(1, n)
    shifts = rng.sample(range(n), d)
    return from_edges(n, n, [(i, (i + s) % n) for i in range(n) for s in shifts])


def girth_oracle(g: BipartiteGraph) -> int | None:
    """Independent exact girth: for each edge, remove it and measure the
    endpoint distance in the rest; the shortest cycle is the minimum of
    distance + 1 over edges."""
    best = None
    for drop in g.edges:
        di, dj = drop
        dist = {(0, di): 0}
        queue = deque([(0, di)])
        found = None
        while queue:
            side, x = queue.popleft()
            d = dist[(side, x)]
            if best is not None and d + 1 >= best:
                continue
            if side == 0:
                for y in g.adj_v[x]:
                    if (x, y) == drop or (1, y) in dist:
                        continue
                    dist[(1, y)] = d + 1
                    if y == dj:
                        found = d + 1
                        queue.clear()
                        break
                    queue.append((1, y))
            else:
                for y in g.adj_w[x]:
                    if (y, x) == drop or (0, y) in dist:
                        continue
                    dist[(0, y)] = d + 1
                    queue.append((0, y))
        if found is not None and (best is None or found + 1 < best):
            best = found + 1
    return best


def weak_gq_oracle(g: BipartiteGraph) -> bool:
    """Weak generalized quadrangle by its definition: both classes nonempty,
    every degree at least 2, girth at least 8 (edge-removal oracle), and
    exactly one path i - y - x - j of length 3 between every V-vertex i and
    every W-vertex j not adjacent to it, found by enumerating the paths."""
    if g.v == 0 or g.w == 0 or g.min_degree() < 2:
        return False
    gth = girth_oracle(g)
    if gth is not None and gth < 8:
        return False
    nbr_v = [set(nb) for nb in g.adj_v]
    for i in range(g.v):
        for j in range(g.w):
            if j in nbr_v[i]:
                continue
            paths = sum(
                1
                for y in g.adj_v[i]
                for x in g.adj_w[y]
                if x != i and j in nbr_v[x]
            )
            if paths != 1:
                return False
    return True


def k_core_oracle(g: BipartiteGraph, k: int) -> tuple[BipartiteGraph, int]:
    """prune_min_degree by its definition: delete every vertex of degree < k,
    recount the degrees among the vertices left, and repeat until none is
    below k; then reindex the survivors in their order."""
    keep_v, keep_w = set(range(g.v)), set(range(g.w))
    while True:
        edges = [(i, j) for i, j in g.edges if i in keep_v and j in keep_w]
        low_v = {i for i in keep_v if sum(1 for x, _ in edges if x == i) < k}
        low_w = {j for j in keep_w if sum(1 for _, y in edges if y == j) < k}
        if not low_v and not low_w:
            break
        keep_v -= low_v
        keep_w -= low_w
    new_v = {x: n for n, x in enumerate(sorted(keep_v))}
    new_w = {y: n for n, y in enumerate(sorted(keep_w))}
    residual = from_edges(len(new_v), len(new_w), [(new_v[i], new_w[j]) for i, j in edges])
    return residual, g.e - residual.e


def disjoint_union(parts) -> BipartiteGraph:
    """Side-by-side union, each part's classes indexed after the previous ones."""
    v = w = 0
    edges = []
    for g in parts:
        edges.extend((i + v, j + w) for i, j in g.edges)
        v += g.v
        w += g.w
    return from_edges(v, w, edges)


def transpose(g: BipartiteGraph) -> BipartiteGraph:
    """The same graph with its classes swapped."""
    return from_edges(g.w, g.v, [(j, i) for i, j in g.edges])


def cyclic_component_sizes(g: BipartiteGraph) -> list[tuple[int, int]]:
    """(V-vertices, W-vertices) of each connected component with a cycle,
    by union-find over the edges."""
    parent = list(range(g.v + g.w))  # W-vertex j is node g.v + j

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in g.edges:
        parent[find(i)] = find(g.v + j)
    sizes: dict[int, list[int]] = {}
    for x in range(g.v + g.w):
        sizes.setdefault(find(x), [0, 0, 0])[x >= g.v] += 1
    for i, _ in g.edges:
        sizes[find(i)][2] += 1
    return [(nv, nw) for nv, nw, e in sizes.values() if e >= nv + nw]


def random_tree(rng: random.Random, max_vertices: int = 10) -> BipartiteGraph:
    """Random bipartite tree: each new vertex joins one earlier vertex of the
    other class."""
    sides = [0]  # class of each vertex in order of creation
    index = [0]  # its index within that class
    counts = [1, 0]
    edges = []
    for _ in range(rng.randrange(max_vertices)):
        parent = rng.randrange(len(sides))
        side = 1 - sides[parent]
        sides.append(side)
        index.append(counts[side])
        counts[side] += 1
        a, b = index[parent], index[-1]
        edges.append((a, b) if side == 1 else (b, a))
    return from_edges(counts[0], counts[1], edges)


def uncoloured_adjacency(g: Graph) -> list[list[int]]:
    """Neighbour lists of an uncoloured graph, built from its edges."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def uncoloured_girth_oracle(g: Graph) -> int | None:
    """Edge-removal girth for uncoloured graphs."""
    adj = uncoloured_adjacency(g)
    best = None
    for drop in g.edges:
        a, b = drop
        dist = {a: 0}
        queue = deque([a])
        found = None
        while queue:
            x = queue.popleft()
            d = dist[x]
            if best is not None and d + 1 >= best:
                continue
            for y in adj[x]:
                if {x, y} == {a, b} or y in dist:
                    continue
                dist[y] = d + 1
                if y == b:
                    found = d + 1
                    queue.clear()
                    break
                queue.append(y)
        if found is not None and (best is None or found + 1 < best):
            best = found + 1
    return best


def has_c4_oracle(g: BipartiteGraph) -> bool:
    for x, z in combinations(range(g.v), 2):
        if len(set(g.adj_v[x]) & set(g.adj_v[z])) >= 2:
            return True
    return False


def has_c6_oracle(g: BipartiteGraph) -> bool:
    """Brute force over 3+3 vertex choices; quadratic-exponential, so only
    for small graphs."""
    eset = set(g.edges)
    for xs in combinations(range(g.v), 3):
        x1, x2, x3 = xs
        for ys in combinations(range(g.w), 3):
            for y1, y2, y3 in permutations(ys):
                if (
                    (x1, y1) in eset
                    and (x2, y1) in eset
                    and (x2, y2) in eset
                    and (x3, y2) in eset
                    and (x3, y3) in eset
                    and (x1, y3) in eset
                ):
                    return True
    return False


def random_uncoloured(rng: random.Random, max_n: int = 8) -> Graph:
    n = rng.randint(1, max_n)
    pool = list(combinations(range(n), 2))
    return Graph(n, rng.sample(pool, rng.randint(0, len(pool))))


def is_biregular(g: BipartiteGraph) -> bool:
    return len(set(g.degrees_v())) <= 1 and len(set(g.degrees_w())) <= 1


def random_rational_matrix(rng: random.Random, v: int, w: int, value_cap: int = 4):
    """v x w rows of uniform rationals in [0, value_cap] with denominator <= 64."""
    rows = []
    for _ in range(v):
        row = []
        for _ in range(w):
            den = rng.randint(1, 64)
            row.append(Fraction(rng.randint(0, value_cap * den), den))
        rows.append(row)
    return rows


def random_fraction_upto(rng: random.Random, hi: Fraction, steps: int = 16) -> Fraction:
    return hi * rng.randint(0, steps) / steps


def rational_oracle(value) -> Fraction:
    """The rational parser as first written: a regex check, then Fraction's
    own string parser."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str) or not re.fullmatch(r"\s*[+-]?[0-9]+(/[0-9]+)?\s*", value):
        raise ValueError(f"{value!r} is not a rational p or p/q")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


def margins_oracle(entries):
    """(row sums, column sums, total) of rows of Fractions, summed entry by entry."""
    rows = tuple(sum(row, Fraction(0)) for row in entries)
    cols = tuple(sum(col, Fraction(0)) for col in zip(*entries))
    return rows, cols, sum(rows, Fraction(0))


def check_oracle(entries, rho, gamma) -> tuple:
    """(phi, rhs, hypotheses_hold, satisfied, equality) of the mean inequality,
    by the textbook formulas in Fraction arithmetic throughout."""
    rows, cols, e = margins_oracle(entries)
    phi = Fraction(0)
    for i, row in enumerate(entries):
        for j, a in enumerate(row):
            phi += a * (rows[i] - rho) * (cols[j] - gamma)
    rhs = e * (e / len(rows) - rho) * (e / len(cols) - gamma)
    hyp = all(s >= 2 * rho for s in rows) and all(s >= 2 * gamma for s in cols)
    return phi, rhs, hyp, phi >= rhs, phi == rhs


def weak_violation_oracle(entries, denominator: int):
    """The first (rho, gamma) on the grid of step 1/denominator, rho first,
    with rho <= every row sum and gamma <= every column sum where
    check_oracle is not satisfied, or None."""
    rows, cols, _ = margins_oracle(entries)
    for num_r in range(int(min(rows) * denominator) + 1):
        for num_g in range(int(min(cols) * denominator) + 1):
            rho, gamma = Fraction(num_r, denominator), Fraction(num_g, denominator)
            if not check_oracle(entries, rho, gamma)[3]:
                return rho, gamma
    return None


def forbid_processes(monkeypatch) -> None:
    """Make any start of a child process raise, with several CPUs reported,
    so a search that sized a pool by the CPU count would fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
