"""Generators for the extremal graph families.

Covers the edge-subdivision expansion, grid incidence graphs, complete
bipartite graphs, the optimal unbalanced families for girth 6 and 8, and
two finite-geometry incidence graphs over prime fields: the projective
plane PG(2, q) (girth 6) and the symplectic generalized quadrangle W(q)
(girth 8).

Every generator is deterministic, so outputs are reproducible
byte-for-byte.
"""

from __future__ import annotations

from itertools import combinations, product
from math import isqrt

from .graphcore import BipartiteGraph, Graph, from_edges


__all__ = [
    "complete_bipartite",
    "expand",
    "grid_incidence",
    "pg2_incidence",
    "unbalanced6",
    "unbalanced8",
    "wq_incidence",
]


def _points(q: int, dim: int) -> list[tuple[int, ...]]:
    """All points of PG(dim-1, q), q prime, as coordinate tuples whose first
    nonzero entry is 1: ordered by the position of that entry, then
    lexicographically by the entries after it."""
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"{q} is not prime")
    return [
        (0,) * lead + (1,) + tail
        for lead in range(dim)
        for tail in product(range(q), repeat=dim - lead - 1)
    ]


def expand(g: Graph) -> BipartiteGraph:
    """Bipartite expansion: class V = vertices, class W = edges of g.

    Every W-vertex gets degree exactly 2 (its two endpoints), so the size
    doubles and so does the girth (the expansion is the edge subdivision).
    """
    return _expand_with_pendants(g.n, g.edges, g.e)


def grid_incidence(t: int) -> BipartiteGraph:
    """Incidence graph of a (t+1) x (t+1) grid of points with its t+1
    horizontal and t+1 vertical lines.

    v = (t+1)^2, w = 2(t+1), e = 2(t+1)^2; girth 8 for t >= 1.  These are
    the generalized-quadrangle parameters with s = 1, and the cubic bound
    is met with equality.
    """
    if t < 0:
        raise ValueError(f"grid parameter must be >= 0, got {t}")
    side = t + 1
    pairs = []
    for r in range(side):
        for c in range(side):
            point = r * side + c
            pairs.append((point, r))          # horizontal line r
            pairs.append((point, side + c))   # vertical line c
    return from_edges(side * side, 2 * side, pairs)


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    """K_{a,b} with all a*b edges."""
    return from_edges(a, b, [(i, j) for i in range(a) for j in range(b)])


def pg2_incidence(q: int) -> BipartiteGraph:
    """Point-line incidence graph of the projective plane PG(2, q).

    Points and lines are both the canonical points of PG(2, q) (lines via
    duality); incidence is a vanishing dot product.  v = w = q^2 + q + 1,
    all degrees q + 1, girth 6, and the girth-6 quadratic bound is met
    with equality.  Exercised for prime q up to 13.
    """
    pts = _points(q, 3)
    pairs = [
        (i, j)
        for j, (l0, l1, l2) in enumerate(pts)
        for i, (p0, p1, p2) in enumerate(pts)
        if (p0 * l0 + p1 * l1 + p2 * l2) % q == 0
    ]
    return from_edges(len(pts), len(pts), pairs)


def wq_incidence(q: int) -> BipartiteGraph:
    """Incidence graph of the symplectic generalized quadrangle W(q).

    Points are all of PG(3, q); lines are the totally isotropic
    2-subspaces of the alternating form x1*y2 - x2*y1 + x3*y4 - x4*y3.
    v = w = (q+1)(q^2+1), both sides (q+1)-regular, e = (q+1)^2 (q^2+1),
    girth exactly 8, and the cubic bound is met with equality.  Exercised
    for prime q up to 13.

    Each 2-subspace is built once, from its reduced row-echelon basis
    (r, s): r has its leading 1 at i and a 0 at j > i, s its leading 1 at
    j.  The form vanishes on the span exactly when it vanishes at (r, s),
    and the line's q + 1 points s and r + t*s (t = 0..q-1) already have
    first nonzero entry 1, so they are looked up without normalising.
    Lines are numbered in the lexicographic order of the sorted indices of
    their points, which is the order of their two lowest points.
    """
    pts = _points(q, 4)
    index = {p: i for i, p in enumerate(pts)}
    by_lead = [[], [], [], []]
    for p in pts:
        by_lead[p.index(1)].append(p)
    lines = []
    for r in pts:
        for j in range(r.index(1) + 1, 4):
            if r[j]:
                continue
            for s in by_lead[j]:
                if (r[0] * s[1] - r[1] * s[0] + r[2] * s[3] - r[3] * s[2]) % q:
                    continue
                line = [index[s]]
                line += (index[tuple((a + t * b) % q for a, b in zip(r, s))] for t in range(q))
                line.sort()
                lines.append(line)
    lines.sort()
    expected = (q + 1) * (q * q + 1)
    if len(lines) != expected:
        raise AssertionError(
            f"isotropic line count {len(lines)} != {expected} for q={q}"
        )
    pairs = [(i, j) for j, line in enumerate(lines) for i in line]
    return from_edges(len(pts), len(lines), pairs)


def _expand_with_pendants(n: int, edges, w: int) -> BipartiteGraph:
    """Expansion of the sorted edge list ``edges`` on n vertices (W-vertex k
    is edge k), padded up to w W-vertices with pendants on V-vertex 0."""
    pairs = [(x, k) for k, edge in enumerate(edges) for x in edge]
    pairs += [(0, k) for k in range(len(edges), w)]
    return from_edges(n, w, pairs)


def unbalanced6(v: int, w: int) -> BipartiteGraph:
    """Expansion of the complete graph K_v padded with pendant W-vertices.

    Requires w >= v(v-1)/2.  Size is v(v-1)/2 + w, which meets the coarse
    girth-6 bound's second alternative with equality; girth 6 for v >= 3.
    Pendants all attach to V-vertex 0 for reproducibility.
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    core = v * (v - 1) // 2
    if w < core:
        raise ValueError(f"w must be >= v(v-1)/2 = {core}, got {w}")
    return _expand_with_pendants(v, list(combinations(range(v), 2)), w)


def unbalanced8(v: int, w: int) -> BipartiteGraph:
    """Expansion of a balanced complete bipartite graph plus pendants.

    Splits the v vertices into halves of sizes ceil(v/2) (lower indices)
    and floor(v/2), expands the complete bipartite graph between them
    (floor(v^2/4) edges), and attaches w - floor(v^2/4) pendant W-vertices
    to V-vertex 0.  Requires v >= 2 and w >= floor(v^2/4).  Size is
    floor(v^2/4) + w, meeting the coarse girth-8 bound (and the unbalanced
    cap when defined) with equality; girth 8 for v >= 4.
    """
    if v < 2:
        raise ValueError(f"v must be >= 2, got {v}")
    core = v * v // 4
    if w < core:
        raise ValueError(f"w must be >= floor(v^2/4) = {core}, got {w}")
    upper = (v + 1) // 2
    return _expand_with_pendants(v, list(product(range(upper), range(upper, v))), w)
