"""Two-coloured graphs with exact girth analytics and class-aware transforms.

The central object is :class:`BipartiteGraph`: two vertex classes V and W,
indexed independently, with every edge a (V-index, W-index) pair.  Keeping
the classes index-disjoint by type (rather than offsetting one class) rules
out colour-confusion bugs in the constructions and the search.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    "prune_min_degree",
    "to_json",
    "verify_weak_gq",
]

# Largest class size from_json accepts.  BipartiteGraph allocates one list
# per vertex before reading any edge, so a file claiming a huge class with
# no edges would otherwise exhaust memory before any check fails.
MAX_JSON_CLASS_SIZE = 10 ** 6


class Graph:
    """Uncoloured simple graph on vertices 0..n-1 (edge pairs stored sorted)."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, pairs) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        norm = []
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"loop edge ({a}, {b}) not allowed")
            pair = (a, b) if a < b else (b, a)
            if pair in seen:
                raise ValueError(f"duplicate edge ({a}, {b})")
            seen.add(pair)
            norm.append(pair)
        self.n = n
        self.edges = tuple(sorted(norm))
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        self.adj = tuple(tuple(sorted(nb)) for nb in adj)

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
        norm = []
        for i, j in pairs:
            if not (0 <= i < v and 0 <= j < w):
                raise ValueError(f"edge ({i}, {j}) out of range for v={v}, w={w}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            norm.append((i, j))
        self.v = v
        self.w = w
        self.edges = tuple(sorted(norm))
        av: list[list[int]] = [[] for _ in range(v)]
        aw: list[list[int]] = [[] for _ in range(w)]
        for i, j in self.edges:
            av[i].append(j)
            aw[j].append(i)
        self.adj_v = tuple(tuple(nb) for nb in av)
        self.adj_w = tuple(tuple(sorted(nb)) for nb in aw)

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


@dataclass(frozen=True)
class GirthReport:
    """Exact girth plus presence flags for the two short even cycles.

    ``girth`` is None for a forest.  Bipartiteness makes every cycle even,
    so ``has_c4`` is equivalent to girth 4; ``has_c6`` flags a 6-cycle,
    which can coexist with girth 4.
    """

    girth: int | None
    has_c4: bool
    has_c6: bool


def from_edges(v: int, w: int, pairs) -> BipartiteGraph:
    """Build a bipartite graph, rejecting out-of-range and duplicate pairs."""
    return BipartiteGraph(v, w, pairs)


def _unified_adjacency(g: BipartiteGraph) -> list[list[int]]:
    # Internal flat indexing for traversals only: V-vertex i -> i,
    # W-vertex j -> g.v + j.  Never exposed.
    adj: list[list[int]] = [[] for _ in range(g.v + g.w)]
    for i, j in g.edges:
        adj[i].append(g.v + j)
        adj[g.v + j].append(i)
    return adj


def girth(g: BipartiteGraph) -> GirthReport:
    """Exact girth by BFS from every vertex; O(V*E), fine at library scale.

    From each source, any non-tree edge (u, x) closes a cycle of length at
    most dist[u] + dist[x] + 1; the minimum of these over all sources is
    the girth, and sources on a shortest cycle report it exactly.
    """
    adj = _unified_adjacency(g)
    n = len(adj)
    best: int | None = None
    for s in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best:
                break
            for x in adj[u]:
                if dist[x] < 0:
                    dist[x] = dist[u] + 1
                    parent[x] = u
                    queue.append(x)
                elif x != parent[u]:
                    cand = dist[u] + dist[x] + 1
                    if best is None or cand < best:
                        best = cand
        if best == 4:
            break  # even girth cannot drop below 4
    has_c4 = best == 4
    if best is None or best >= 8:
        has_c6 = False
    elif best == 6:
        has_c6 = True
    else:
        has_c6 = _contains_c6(g)
    return GirthReport(girth=best, has_c4=has_c4, has_c6=has_c6)


def _contains_c6(g: BipartiteGraph) -> bool:
    # Walk x1-y1-x2-y2-x3, then look for y3 adjacent to both x3 and x1.
    # Early return makes this cheap on the dense graphs where C6s abound.
    mask_v = [0] * g.v
    for i in range(g.v):
        m = 0
        for j in g.adj_v[i]:
            m |= 1 << j
        mask_v[i] = m
    for x1 in range(g.v):
        m1 = mask_v[x1]
        for y1 in g.adj_v[x1]:
            used12 = (1 << y1)
            for x2 in g.adj_w[y1]:
                if x2 == x1:
                    continue
                for y2 in g.adj_v[x2]:
                    if y2 == y1:
                        continue
                    used = used12 | (1 << y2)
                    for x3 in g.adj_w[y2]:
                        if x3 == x1 or x3 == x2:
                            continue
                        if mask_v[x3] & m1 & ~used:
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
    ordered walks on 4 distinct vertices and halves the total.
    """
    adj = _unified_adjacency(g)
    total = 0
    for a in range(len(adj)):
        for b in adj[a]:
            for c in adj[b]:
                if c == a:
                    continue
                for d in adj[c]:
                    if d != a and d != b:
                        total += 1
    return total // 2


def prune_min_degree(g: BipartiteGraph, k: int) -> tuple[BipartiteGraph, int]:
    """Repeatedly delete vertices of degree < k; returns (residual, edges removed).

    The residual keeps the survivors' relative order and is reindexed
    compactly.  The fixed point is order-independent, so processing lowest
    index first is purely cosmetic.  Result has minimal degree >= k or is
    empty.
    """
    if k < 1:
        raise ValueError(f"degree threshold must be >= 1, got {k}")
    alive_v = [True] * g.v
    alive_w = [True] * g.w
    deg_v = [len(nb) for nb in g.adj_v]
    deg_w = [len(nb) for nb in g.adj_w]
    queue = deque()
    for i in range(g.v):
        if deg_v[i] < k:
            queue.append((0, i))
    for j in range(g.w):
        if deg_w[j] < k:
            queue.append((1, j))
    while queue:
        side, x = queue.popleft()
        if side == 0:
            if not alive_v[x]:
                continue
            alive_v[x] = False
            for j in g.adj_v[x]:
                if alive_w[j]:
                    deg_w[j] -= 1
                    if deg_w[j] < k:
                        queue.append((1, j))
        else:
            if not alive_w[x]:
                continue
            alive_w[x] = False
            for i in g.adj_w[x]:
                if alive_v[i]:
                    deg_v[i] -= 1
                    if deg_v[i] < k:
                        queue.append((0, i))
    new_i = {}
    for i in range(g.v):
        if alive_v[i]:
            new_i[i] = len(new_i)
    new_j = {}
    for j in range(g.w):
        if alive_w[j]:
            new_j[j] = len(new_j)
    kept = [
        (new_i[i], new_j[j])
        for i, j in g.edges
        if alive_v[i] and alive_w[j]
    ]
    residual = BipartiteGraph(len(new_i), len(new_j), kept)
    return residual, g.e - residual.e


def contract(g: BipartiteGraph) -> Graph:
    """Uncoloured graph on class V joining vertices with a common W-neighbour.

    Without 4-cycles the common neighbour is unique, so the contracted size
    is exactly the sum of C(d(y), 2) over W-vertices y.
    """
    pairs = set()
    for nbrs in g.adj_w:
        for x, z in combinations(nbrs, 2):
            pairs.add((x, z))
    return Graph(g.v, sorted(pairs))


def verify_weak_gq(g: BipartiteGraph) -> bool:
    """True iff g is the incidence graph of a weak generalized quadrangle.

    Operationally: girth at least 8, every degree at least 2, and every
    non-adjacent opposite-class pair joined by exactly one path of length
    3.  At girth >= 8 adjacent pairs have no length-3 connection, so only
    non-adjacent pairs need checking.
    """
    if g.v == 0 or g.w == 0:
        return False
    rep = girth(g)
    if rep.girth is not None and rep.girth < 8:
        return False
    if g.min_degree() < 2:
        return False
    mask_v = [0] * g.v
    for i in range(g.v):
        m = 0
        for j in g.adj_v[i]:
            m |= 1 << j
        mask_v[i] = m
    for j in range(g.w):
        jbit = 1 << j
        nbrs = g.adj_w[j]
        masks = [mask_v[x] for x in nbrs]
        for i in range(g.v):
            mi = mask_v[i]
            if mi & jbit:
                continue
            count = 0
            for mx in masks:
                count += (mi & mx).bit_count()
                if count > 1:
                    break
            if count != 1:
                return False
    return True


def to_json(g: BipartiteGraph) -> dict:
    """Graph JSON object: {"v": int, "w": int, "edges": [[i, j], ...]}."""
    return {"v": g.v, "w": g.w, "edges": [[i, j] for i, j in g.edges]}


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
    if not isinstance(edges, list):
        raise ValueError("graph JSON field 'edges' must be an array")
    pairs = []
    for entry in edges:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise ValueError(f"graph JSON edge {entry!r} is not a 2-element integer array")
        pairs.append((entry[0], entry[1]))
    return from_edges(v, w, pairs)
