"""Two-coloured graphs with exact girth analytics and class-aware transforms.

The central object is :class:`BipartiteGraph`: two vertex classes V and W,
indexed independently, with every edge a (V-index, W-index) pair.  Keeping
the classes index-disjoint by type (rather than offsetting one class) rules
out colour-confusion bugs in the constructions and the search.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations


__all__ = [
    "BipartiteGraph",
    "GirthReport",
    "Graph",
    "MAX_JSON_CLASS_SIZE",
    "contract",
    "count_paths3",
    "count_paths3_enumerate",
    "from_edges",
    "from_json",
    "girth",
    "pairs_from_json",
    "prune_min_degree",
    "to_json",
    "verify_weak_gq",
]

# Largest class size from_json accepts.  BipartiteGraph allocates one list
# per vertex before reading any edge, so a file claiming a huge class with
# no edges would otherwise exhaust memory before any check fails.
MAX_JSON_CLASS_SIZE = 10 ** 6


class Graph:
    """Uncoloured simple graph on vertices 0..n-1, kept as its sorted edge
    pairs (a, b) with a < b."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, pairs) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"loop edge ({a}, {b}) not allowed")
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add(pair)
        self.n = n
        self.edges = tuple(sorted(seen))

    @property
    def e(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.e})"


class BipartiteGraph:
    """Bipartite graph with classes V (size v) and W (size w).

    Edges are (i, j) pairs with i a V-index and j a W-index.  Adjacency
    lists are precomputed per class; ``adj_v[i]`` lists W-neighbours of
    V-vertex i, ``adj_w[j]`` lists V-neighbours of W-vertex j.
    """

    __slots__ = ("v", "w", "edges", "adj_v", "adj_w")

    def __init__(self, v: int, w: int, pairs) -> None:
        if v < 0 or w < 0:
            raise ValueError(f"class sizes must be nonnegative, got v={v} w={w}")
        seen = set()
        for i, j in pairs:
            if not (0 <= i < v and 0 <= j < w):
                raise ValueError(f"edge ({i}, {j}) out of range for v={v}, w={w}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        self.v = v
        self.w = w
        self.edges = tuple(sorted(seen))
        av: list[list[int]] = [[] for _ in range(v)]
        aw: list[list[int]] = [[] for _ in range(w)]
        for i, j in self.edges:  # sorted edges give ascending lists
            av[i].append(j)
            aw[j].append(i)
        self.adj_v = tuple(tuple(nb) for nb in av)
        self.adj_w = tuple(tuple(nb) for nb in aw)

    @property
    def e(self) -> int:
        return len(self.edges)

    def degrees_v(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adj_v)

    def degrees_w(self) -> tuple[int, ...]:
        return tuple(len(nb) for nb in self.adj_w)

    def min_degree(self) -> int:
        """Smallest degree over both classes (0 for an empty class side)."""
        degs = self.degrees_v() + self.degrees_w()
        return min(degs) if degs else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BipartiteGraph)
            and self.v == other.v
            and self.w == other.w
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.v, self.w, self.edges))

    def __repr__(self) -> str:
        return f"BipartiteGraph(v={self.v}, w={self.w}, e={self.e})"


class GirthReport(namedtuple("GirthReport", "girth has_c4 has_c6")):
    """Exact girth plus presence flags for the two short even cycles.

    ``girth`` is None for a forest.  Bipartiteness makes every cycle even,
    so ``has_c4`` is equivalent to girth 4; ``has_c6`` flags a 6-cycle,
    which can coexist with girth 4.
    """

    __slots__ = ()


def from_edges(v: int, w: int, pairs) -> BipartiteGraph:
    """Build a bipartite graph, rejecting out-of-range and duplicate pairs."""
    return BipartiteGraph(v, w, pairs)


def girth(g: BipartiteGraph) -> GirthReport:
    """Exact girth and short-cycle flags, one connected component at a time.

    Components are found in O(v + e); a component with fewer edges than
    vertices is a tree and is skipped.  In every other component the
    vertices get local indices and each one a neighbour bitmask, and a
    frontier-mask BFS runs from each vertex of the component's smaller
    class (every cycle meets both classes).  A vertex reached from two
    frontier vertices at level L ends two shortest paths from the source,
    so a cycle of length at most 2L exists; from a source on a shortest
    cycle, the vertex opposite it is the first one reached twice, at level
    girth/2.  The least such 2L over the sources is therefore the girth.  A
    source stops at the first level L with 2L at least the best cycle so
    far.  Memory stays proportional to the largest component, not to v*w.
    """
    best: int | None = None
    has_c6 = False
    for nb_v, nb_w in _cyclic_components(g):
        # Below girth 8 the flags need to know whether a C6 exists, so look
        # for cycles under 8 until one is found; otherwise under best.
        limit = best if has_c6 or best is None or best >= 8 else 8
        found = _component_girth(nb_v, nb_w, limit)
        if found is None:
            continue
        best = found if best is None else min(best, found)
        has_c6 = has_c6 or found == 6 or (found == 4 and _contains_c6(nb_v, nb_w))
        if best == 4 and has_c6:
            break
    return GirthReport(girth=best, has_c4=best == 4, has_c6=has_c6)


def _cyclic_components(g: BipartiteGraph):
    """Yield (nb_v, nb_w) for each connected component holding a cycle.

    ``nb_v[x]`` is the bitmask of local W-neighbours of the component's
    x-th V-vertex, ``nb_w[y]`` that of local V-neighbours of its y-th
    W-vertex.  Every cycle has a V-vertex, so the traversal starts only
    from V-vertices; one component is held at a time.
    """
    loc_v = [-1] * g.v  # local index within the component, -1 if unseen
    loc_w = [-1] * g.w
    for root in range(g.v):
        if loc_v[root] >= 0:
            continue
        loc_v[root] = 0
        comp_v = [root]
        comp_w = []
        for i in comp_v:  # grows while it is read: a BFS order
            for j in g.adj_v[i]:
                if loc_w[j] < 0:
                    loc_w[j] = len(comp_w)
                    comp_w.append(j)
                    for x in g.adj_w[j]:
                        if loc_v[x] < 0:
                            loc_v[x] = len(comp_v)
                            comp_v.append(x)
        if sum(len(g.adj_v[i]) for i in comp_v) < len(comp_v) + len(comp_w):
            continue  # a tree
        yield (
            [sum(1 << loc_w[j] for j in g.adj_v[i]) for i in comp_v],
            [sum(1 << loc_v[i] for i in g.adj_w[j]) for j in comp_w],
        )


def _component_girth(nb_v: list[int], nb_w: list[int], limit: int | None) -> int | None:
    """Girth of a connected component if it is below ``limit``, else None."""
    if len(nb_v) > len(nb_w):
        nb_v, nb_w = nb_w, nb_v  # sources from the smaller class
    nbs = (nb_v, nb_w)
    best = limit
    for s in range(len(nb_v)):
        seen = [1 << s, 0]  # per class: vertices at distance < level
        frontier = 1 << s
        level = 1
        while frontier and (best is None or 2 * level < best):
            side = level & 1  # class of this level's vertices
            nb = nbs[1 - side]
            once = twice = 0
            for u in _bits(frontier):
                twice |= once & nb[u]
                once |= nb[u]
            fresh = ~seen[side]
            if twice & fresh:
                best = 2 * level
                break
            frontier = once & fresh
            seen[side] |= frontier
            level += 1
        if best == 4:
            break  # even girth cannot drop below 4
    return best if best != limit else None


def _bits(m: int):
    """Indices of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _contains_c6(nb_v: list[int], nb_w: list[int]) -> bool:
    # Walk x1-y1-x2-y2-x3 on one component's masks, then look for y3
    # adjacent to both x3 and x1.  Early return makes this cheap on the
    # dense graphs where C6s abound.
    for x1, m1 in enumerate(nb_v):
        for y1 in _bits(m1):
            for x2 in _bits(nb_w[y1] & ~(1 << x1)):
                for y2 in _bits(nb_v[x2] & ~(1 << y1)):
                    used = m1 & ~(1 << y1) & ~(1 << y2)
                    for x3 in _bits(nb_w[y2] & ~(1 << x1) & ~(1 << x2)):
                        if nb_v[x3] & used:
                            return True
    return False


def count_paths3(g: BipartiteGraph) -> int:
    """Number of simple paths on 4 vertices, summed per middle edge.

    Each path x-y-z-t is counted once at its middle edge {y, z} as
    (d(y)-1)(d(z)-1); bipartite colouring rules out endpoint collisions.
    """
    dv = [len(nb) for nb in g.adj_v]
    dw = [len(nb) for nb in g.adj_w]
    return sum((dv[i] - 1) * (dw[j] - 1) for i, j in g.edges)


def count_paths3_enumerate(g: BipartiteGraph) -> int:
    """Same count by explicit walk enumeration; the independent oracle.

    Intended for small graphs (up to around 40 vertices); enumerates
    ordered walks a-b-c-d on 4 distinct vertices from either class and
    halves the total.  a, c and b, d share a class, so a != c and b != d
    are the only collisions to exclude.
    """
    total = 0
    for adj, back in ((g.adj_v, g.adj_w), (g.adj_w, g.adj_v)):
        for a, nbrs in enumerate(adj):
            for b in nbrs:
                for c in back[b]:
                    if c != a:
                        for d in adj[c]:
                            if d != b:
                                total += 1
    return total // 2


def prune_min_degree(g: BipartiteGraph, k: int) -> tuple[BipartiteGraph, int]:
    """Repeatedly delete vertices of degree < k; returns (residual, edges removed).

    The residual keeps the survivors' relative order and is reindexed
    compactly.  The fixed point is order-independent, so the order in which
    vertices are deleted is purely cosmetic.  Result has minimal degree >= k
    or is empty.
    """
    if k < 1:
        raise ValueError(f"degree threshold must be >= 1, got {k}")
    adj = (g.adj_v, g.adj_w)  # side 0 is class V, side 1 class W
    deg = [[len(nb) for nb in side] for side in adj]
    alive = [[True] * g.v, [True] * g.w]
    pending = [(s, x) for s in (0, 1) for x in range(len(adj[s])) if deg[s][x] < k]
    while pending:
        s, x = pending.pop()
        if alive[s][x]:
            alive[s][x] = False
            for y in adj[s][x]:
                if alive[1 - s][y]:
                    deg[1 - s][y] -= 1
                    if deg[1 - s][y] < k:
                        pending.append((1 - s, y))
    new_i, new_j = (
        {x: n for n, x in enumerate(x for x, a in enumerate(side) if a)} for side in alive
    )
    kept = [(new_i[i], new_j[j]) for i, j in g.edges if i in new_i and j in new_j]
    residual = BipartiteGraph(len(new_i), len(new_j), kept)
    return residual, g.e - residual.e


def contract(g: BipartiteGraph) -> Graph:
    """Uncoloured graph on class V joining vertices with a common W-neighbour.

    Without 4-cycles the common neighbour is unique, so the contracted size
    is exactly the sum of C(d(y), 2) over W-vertices y.
    """
    return Graph(g.v, {pair for nbrs in g.adj_w for pair in combinations(nbrs, 2)})


def verify_weak_gq(g: BipartiteGraph) -> bool:
    """True iff g is the incidence graph of a weak generalized quadrangle.

    Operationally: both classes nonempty, every degree at least 2, girth at
    least 8, and every non-adjacent opposite-class pair joined by exactly
    one path of length 3.  The last condition is checked by counting.  At
    girth >= 8 the non-backtracking walks j - x - y - z of length 3 from a
    W-vertex j are paths, they end outside N(j), and no two end at the same
    z (that would close a cycle of length at most 6).  Their number,
    sum over x in N(j) of s_x - d(j)(d(j) - 1) with s_x = sum over y in
    N(x) of (d(y) - 1), is therefore v - d(j) exactly when every V-vertex
    outside N(j) is reached once.
    """
    if g.v == 0 or g.w == 0 or g.min_degree() < 2:
        return False
    rep = girth(g)
    if rep.girth is not None and rep.girth < 8:
        return False
    dw = g.degrees_w()
    s = [sum(dw[y] for y in nb) - len(nb) for nb in g.adj_v]
    return all(
        sum(s[x] for x in nb) - len(nb) * (len(nb) - 1) == g.v - len(nb)
        for nb in g.adj_w
    )


def to_json(g: BipartiteGraph) -> dict:
    """Graph JSON object: {"v": int, "w": int, "edges": [[i, j], ...]}."""
    return {"v": g.v, "w": g.w, "edges": [[i, j] for i, j in g.edges]}


def pairs_from_json(edges) -> list[tuple[int, int]]:
    """The pairs of a JSON edge array whose every entry is [int, int].

    Shared by :func:`from_json` and the uncoloured graph JSON that
    ``construct expand`` reads.  Bools and floats are refused, not taken as
    vertex ids.
    """
    if not isinstance(edges, list):
        raise ValueError("graph JSON field 'edges' must be an array")
    for entry in edges:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise ValueError(f"graph JSON edge {entry!r} is not a 2-element integer array")
    return [tuple(entry) for entry in edges]


def from_json(obj) -> BipartiteGraph:
    """Parse the Graph JSON format, with diagnostics on malformed input."""
    if not isinstance(obj, dict):
        raise ValueError("graph JSON must be an object")
    for field in ("v", "w", "edges"):
        if field not in obj:
            raise ValueError(f"graph JSON missing field {field!r}")
    v, w, edges = obj["v"], obj["w"], obj["edges"]
    if not isinstance(v, int) or not isinstance(w, int) or isinstance(v, bool) or isinstance(w, bool):
        raise ValueError("graph JSON fields 'v' and 'w' must be integers")
    if v > MAX_JSON_CLASS_SIZE or w > MAX_JSON_CLASS_SIZE:
        raise ValueError(
            f"graph JSON class sizes v={v} w={w} exceed the limit {MAX_JSON_CLASS_SIZE}"
        )
    return from_edges(v, w, pairs_from_json(edges))
