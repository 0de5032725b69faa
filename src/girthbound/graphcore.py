"""Two-coloured graphs with exact girth analytics and class-aware transforms.

The central object is :class:`BipartiteGraph`: two vertex classes V and W,
indexed independently, with every edge a (V-index, W-index) pair.  Keeping
the classes index-disjoint by type (rather than offsetting one class) rules
out colour-confusion bugs in the constructions and the search.

All values are immutable after construction: the graphs, like the
reports, are named tuples, so no field can be reassigned.  Every operation
is a pure function of its inputs, so everything here is safe to share
across threads.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import islice, repeat
from operator import lt, or_


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

# The most sources one lockstep sweep of girth() carries: its masks are at
# most this many bits wide, which bounds the sweep's memory.
_SOURCE_BATCH = 4096


class Graph(namedtuple("Graph", "n edges")):
    """Uncoloured simple graph on vertices 0..n-1, kept as its sorted edge
    pairs (a, b) with a < b."""

    __slots__ = ()

    def __new__(cls, n: int, pairs):
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
        return super().__new__(cls, n, tuple(sorted(seen)))

    @classmethod
    def _make(cls, fields):
        # namedtuple's _make, and _replace through it, would skip __new__'s
        # range, loop and duplicate checks.
        raise TypeError("build a Graph as Graph(n, edges)")

    @property
    def e(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.e})"


class BipartiteGraph(namedtuple("BipartiteGraph", "v w edges adj_v adj_w")):
    """Bipartite graph with classes V (size v) and W (size w).

    Edges are (i, j) pairs with i a V-index and j a W-index.  Adjacency
    lists are precomputed per class; ``adj_v[i]`` lists W-neighbours of
    V-vertex i, ``adj_w[j]`` lists V-neighbours of W-vertex j.
    """

    __slots__ = ()

    def __new__(cls, v: int, w: int, pairs):
        if v < 0 or w < 0:
            raise ValueError(f"class sizes must be nonnegative, got v={v} w={w}")
        # O(v + w + e): bucket the pairs by V-vertex and sort each row's
        # W-indices, instead of sorting the pairs.  A bad pair sends the
        # input through _reject, which raises on the first one in input order.
        pairs = list(pairs)
        av: list[list[int]] = [[] for _ in range(v)]
        for i, j in pairs:
            if not (0 <= i < v and 0 <= j < w):
                _reject(v, w, pairs)
            av[i].append(j)
        for row in av:
            row.sort()
            if len(set(row)) < len(row):
                _reject(v, w, pairs)
        return _assemble(v, w, av, _transpose_rows(av, w))

    def __getnewargs__(self):
        # pickle and copy rebuild the graph through __new__'s checks
        return self.v, self.w, self.edges

    @classmethod
    def _make(cls, fields):
        # namedtuple's _make, and _replace through it, would skip __new__'s
        # checks and keep adjacency that need not match the edges.
        raise TypeError("build a BipartiteGraph as BipartiteGraph(v, w, edges)")

    @property
    def e(self) -> int:
        return len(self.edges)

    def degrees_v(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj_v))

    def degrees_w(self) -> tuple[int, ...]:
        return tuple(map(len, self.adj_w))

    def min_degree(self) -> int:
        """Smallest degree over both classes (0 for an empty class side)."""
        degs = self.degrees_v() + self.degrees_w()
        return min(degs) if degs else 0

    def __repr__(self) -> str:
        return f"BipartiteGraph(v={self.v}, w={self.w}, e={self.e})"


def _reject(v: int, w: int, pairs: list) -> None:
    """Raise ValueError on the first pair of ``pairs`` that is out of range
    or repeats an earlier one."""
    seen = set()
    for i, j in pairs:
        if not (0 <= i < v and 0 <= j < w):
            raise ValueError(f"edge ({i}, {j}) out of range for v={v}, w={w}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))


def _transpose_rows(rows: list, n: int) -> list[list[int]]:
    """The other side's n adjacency lists, given one side's ``rows``: the
    x-th list holds the indices of the rows that hold x.  They ascend, as
    the rows are read in order."""
    out = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for x in row:
            out[x].append(i)
    return out


def _assemble(v: int, w: int, av: list, aw: list) -> BipartiteGraph:
    """The graph with the ascending, duplicate-free adjacency lists ``av``
    of class V and ``aw`` of class W, which must describe the same edges.
    It is built with ``tuple.__new__``: the callers have checked the lists,
    and the edges listed row by row from ``av`` are already sorted."""
    edges = tuple([(i, j) for i, row in enumerate(av) for j in row])
    return tuple.__new__(
        BipartiteGraph, (v, w, edges, tuple(map(tuple, av)), tuple(map(tuple, aw)))
    )


def _from_lines(v: int, lines: list) -> BipartiteGraph:
    """The graph whose W-vertex j has the V-neighbours ``lines[j]``.

    Each line must be strictly ascending, from at least 0 to below v, or
    ValueError names it.  Those checks, run in C per line, cover every
    range and duplicate check ``from_edges`` makes on the same edges, and
    no pair is bucketed or sorted: the geometry families hand in their
    lines as they solve them.
    """
    for line in lines:
        if line and not (
            line[0] >= 0 and line[-1] < v and all(map(lt, line, islice(line, 1, None)))
        ):
            raise ValueError(f"line {line} is not strictly ascending within 0..{v - 1}")
    return _assemble(v, len(lines), _transpose_rows(lines, v), lines)


class GirthReport(namedtuple("GirthReport", "girth")):
    """Exact girth, None for a forest.

    Bipartiteness makes every cycle even, so the girth alone says which
    short cycles the paper's bounds exclude: a 4-cycle exists iff the girth
    is 4, and neither a 4- nor a 6-cycle iff the girth is at least 8 or the
    graph is acyclic.
    """

    __slots__ = ()


def from_edges(v: int, w: int, pairs) -> BipartiteGraph:
    """Build a bipartite graph, rejecting out-of-range and duplicate pairs."""
    return BipartiteGraph(v, w, pairs)


def girth(g: BipartiteGraph) -> GirthReport:
    """Exact girth, by lockstep BFS sweeps from many sources at once.

    Components are found in O(v + e); a component with fewer edges than
    vertices is a tree and is skipped.  In every other component the
    vertices of its smaller class are the sources (every cycle meets both
    classes), taken in batches of at most _SOURCE_BATCH.  The searches
    from one batch advance together, one bit per source (a multi-source
    BFS, as in Then et al., PVLDB 2014).  Each vertex x keeps two masks
    over the batch: ``seen[x]``, the sources at distance less than the
    current level L from x, and ``front[x]``, those at distance exactly L.
    At level L, each vertex x of that level's class gathers the fronts of
    its neighbours; a source in two of them and not in ``seen[x]`` has two
    distinct shortest paths of length L to x, so a cycle of length at most
    2L exists.  Conversely, if a source lies on a cycle of length c, some
    vertex is reached twice from it by level c/2: with no such vertex, the
    ball of radius c/2 around the source, which holds the cycle, would be
    a tree.  So the first level with a detection in a batch holding a
    source on a shortest cycle, of length g, is g/2, and no batch detects
    before that level.  A batch sweep stops at its first detection, or once
    2L reaches the best girth so far, from an earlier batch or component;
    every batch of a cyclic component has a detection (a BFS from any of
    its vertices meets an edge outside its tree), so it needs no other
    stop.  Sources of different batches never interact, so batching
    bounds the masks' width without changing the result.

    Cost: per batch at most g/2 levels (fewer once a shorter cycle is
    known), each O(e) operations on masks at most _SOURCE_BATCH bits wide.
    Memory: Theta(n * min(n_s, _SOURCE_BATCH)) bits for a cyclic component
    of n vertices and n_s sources, one component and one batch at a time.
    """
    best: int | None = None
    for adj_v, adj_w in _cyclic_components(g):
        if len(adj_v) > len(adj_w):
            adj_v, adj_w = adj_w, adj_v  # sources from the smaller class
        for first in range(0, len(adj_v), _SOURCE_BATCH):
            best = _sweep(adj_v, adj_w, first, best)
            if best == 4:
                return GirthReport(girth=4)  # even girth cannot drop below 4
    return GirthReport(girth=best)


def _cyclic_components(g: BipartiteGraph):
    """Yield (adj_v, adj_w) for each connected component holding a cycle.

    ``adj_v[x]`` lists the local indices of the W-neighbours of the
    component's x-th V-vertex, ``adj_w[y]`` those of the V-neighbours of
    its y-th W-vertex.  A component that spans all of g, as every family
    member does, is yielded as g's own ``(g.adj_v, g.adj_w)``, with no
    relabelling: its local indices would only permute g's, and the girth
    does not depend on the labels.  Every cycle has a V-vertex, so the
    traversal starts only from V-vertices; one component is held at a time.
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
        if len(comp_v) == g.v and len(comp_w) == g.w:
            yield g.adj_v, g.adj_w
            return
        yield (
            [[loc_w[j] for j in g.adj_v[i]] for i in comp_v],
            [[loc_v[i] for i in g.adj_w[j]] for j in comp_w],
        )


def _sweep(adj_v: list, adj_w: list, first: int, limit: int | None) -> int:
    """The lesser of ``limit`` (None for no limit) and 2L for the first
    level L with a detection in the lockstep BFS from the V-vertices
    first, first + 1, ..., at most _SOURCE_BATCH of them, of a cyclic
    component.  2L is at least the component's girth and at most the
    length of a shortest cycle through one of these sources."""
    stop = min(first + _SOURCE_BATCH, len(adj_v))
    adj = (adj_v, adj_w)
    front = [[0] * len(adj_v), [0] * len(adj_w)]
    front[0][first:stop] = [1 << s for s in range(stop - first)]
    seen = [front[0][:], front[1][:]]  # per class, indexed by local vertex
    level = 1
    while limit is None or 2 * level < limit:
        side = level & 1  # class of this level's vertices
        prev, fr, sn = front[1 - side], front[side], seen[side]
        for x, nbrs in enumerate(adj[side]):
            once = twice = 0
            for u in nbrs:
                twice |= once & prev[u]
                once |= prev[u]
            s = sn[x]
            if twice & ~s:
                return 2 * level
            fr[x] = f = once & ~s
            sn[x] = s | f
        level += 1
    return limit


def count_paths3(g: BipartiteGraph) -> int:
    """Number of simple paths on 4 vertices, summed per middle edge.

    Each path x-y-z-t is counted once at its middle edge {y, z} as
    (d(y)-1)(d(z)-1); bipartite colouring rules out endpoint collisions.
    """
    dv, dw = g.degrees_v(), g.degrees_w()
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

    A vertex is deleted when its degree first drops below k, and from then
    on its degree only falls, so it is queued exactly once and the
    survivors are the vertices whose final degree is at least k.
    """
    if k < 1:
        raise ValueError(f"degree threshold must be >= 1, got {k}")
    adj = (g.adj_v, g.adj_w)  # side 0 is class V, side 1 class W
    deg = [[len(nb) for nb in side] for side in adj]
    pending = [(s, x) for s in (0, 1) for x in range(len(adj[s])) if deg[s][x] < k]
    for s, x in pending:  # grows while it is read
        for y in adj[s][x]:
            deg[1 - s][y] -= 1
            if deg[1 - s][y] == k - 1:
                pending.append((1 - s, y))
    new_i, new_j = (
        {x: n for n, x in enumerate(x for x, d in enumerate(side) if d >= k)} for side in deg
    )
    kept = [(new_i[i], new_j[j]) for i, j in g.edges if i in new_i and j in new_j]
    residual = BipartiteGraph(len(new_i), len(new_j), kept)
    return residual, g.e - residual.e


def contract(g: BipartiteGraph) -> Graph:
    """Uncoloured graph on class V joining vertices with a common W-neighbour.

    Without 4-cycles the common neighbour is unique, so the contracted size
    is exactly the sum of C(d(y), 2) over W-vertices y.

    Built column by column: each W-vertex's sorted V-list hands every
    entry x the entries after it, which are x's contraction neighbours
    above x through that column.  Each row is then made duplicate-free and
    sorted; taking x in ascending order gives the sorted, duplicate-free
    edge tuple directly, and pairs drawn from a validated graph cannot fail
    the checks of ``Graph(n, pairs)``, so the result is built with
    ``tuple.__new__``, which skips them.  That is safe only because these
    pairs are checked by construction; ``Graph._make`` refuses.
    """
    rows = [[] for _ in range(g.v)]
    for col in g.adj_w:
        for k, x in enumerate(col, 1):
            rows[x] += col[k:]
    edges = []
    for x, row in enumerate(rows):
        edges += zip(repeat(x), sorted(set(row)))
    return tuple.__new__(Graph, (g.v, tuple(edges)))


def verify_weak_gq(g: BipartiteGraph) -> bool:
    """True iff g is the incidence graph of a weak generalized quadrangle.

    Operationally: both classes nonempty, every degree at least 2, girth at
    least 8, and every non-adjacent opposite-class pair joined by exactly
    one path of length 3.  This needs no girth search.  From a W-vertex j,
    the walks j - x - y - z with y != j and z != x are paths, and there are
    sum over x in N(j) of s_x - d(j)(d(j) - 1) of them, with
    s_x = sum over y in N(x) of (d(y) - 1).  Two tests per W-vertex j
    decide the definition:

    - *count*: there are v - d(j) walks;
    - *cover*: the union of N(y) over y in N(x) and x in N(j) is all of V.
      That union is N(j) together with the walks' endpoints, so every
      V-vertex outside N(j) ends some walk.

    By pigeonhole the walks then end on distinct vertices, none of them in
    N(j): each non-neighbour of j is joined to j by exactly one path of
    length 3.  The tests at every j also rule out a 4-cycle, which would end
    a walk from one of its W-vertices inside that vertex's neighbourhood,
    and a 6-cycle, which would join one of its W-vertices to the opposite
    vertex by two walks.  Conversely, at girth 8 and with one path per
    non-adjacent pair, both tests hold.

    The count needs only the degrees and rejects most graphs, so it runs
    first at every j.  Only if every count holds are the neighbour bitmasks
    of the cover test built: they take Theta(v*w) bits.
    """
    if g.min_degree() < 2:  # 0 for an empty class
        return False
    dw = g.degrees_w()
    s = [sum(dw[y] for y in nb) - len(nb) for nb in g.adj_v]
    if not all(
        sum(s[x] for x in nb) - len(nb) * (len(nb) - 1) == g.v - len(nb) for nb in g.adj_w
    ):
        return False
    masks = [sum(1 << x for x in nb) for nb in g.adj_w]
    # The union of N(y) over y in N(x), for each V-vertex x (none is isolated).
    reach = [reduce(or_, map(masks.__getitem__, nb)) for nb in g.adj_v]
    full = (1 << g.v) - 1
    return all(
        reduce(or_, map(reach.__getitem__, nb), masks[j]) == full
        for j, nb in enumerate(g.adj_w)
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
