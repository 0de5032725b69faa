"""Generators for the extremal graph families.

Covers the edge-subdivision expansion, grid incidence graphs, complete
bipartite graphs, the optimal unbalanced families for girth 6 and 8, and
two finite-geometry incidence graphs over prime fields: the projective
plane PG(2, q) (girth 6) and the symplectic generalized quadrangle W(q)
(girth 8).

Every family computes each line's point indices in ascending order (a
line is the V-neighbours of one W-vertex) and hands the lines to
graphcore's row builder, which checks each line (ascending, within range)
in C and sorts or buckets no pair.  An expansion's lines are the edges of
its graph, and each pendant W-vertex of the unbalanced families is the
line (0,).

Every generator is deterministic, so outputs are reproducible
byte-for-byte.
"""

from __future__ import annotations

from itertools import combinations, product
from math import isqrt

from .graphcore import BipartiteGraph, Graph, _from_lines


__all__ = [
    "complete_bipartite",
    "expand",
    "grid_incidence",
    "pg2_incidence",
    "unbalanced6",
    "unbalanced8",
    "wq_incidence",
]


def _check_prime(q: int) -> None:
    """Raise ValueError unless q is prime."""
    if q < 2 or any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        raise ValueError(f"{q} is not prime")


def _points(q: int, dim: int) -> list[tuple[int, ...]]:
    """All points of PG(dim-1, q), q prime, as coordinate tuples whose first
    nonzero entry is 1: ordered by the position of that entry, then
    lexicographically by the entries after it."""
    _check_prime(q)
    return [
        (0,) * lead + (1,) + tail
        for lead in range(dim)
        for tail in product(range(q), repeat=dim - lead - 1)
    ]


def expand(g: Graph) -> BipartiteGraph:
    """Bipartite expansion: class V = vertices, class W = edges of g.

    Every W-vertex gets degree exactly 2 (its two endpoints), so the size
    doubles and so does the girth (the expansion is the edge subdivision).
    W-vertex k is edge k, whose pair (a, b), a < b, is already a line.
    """
    return _from_lines(g.n, g.edges)


def grid_incidence(t: int) -> BipartiteGraph:
    """Incidence graph of a (t+1) x (t+1) grid of points with its t+1
    horizontal and t+1 vertical lines.

    v = (t+1)^2, w = 2(t+1), e = 2(t+1)^2; girth 8 for t >= 1.  These are
    the generalized-quadrangle parameters with s = 1, and the cubic bound
    is met with equality.  Point (r, c) is index r(t+1) + c; horizontal
    line r holds a run of t+1 indices and vertical line c every (t+1)-th
    index from c, both ascending.
    """
    if t < 0:
        raise ValueError(f"grid parameter must be >= 0, got {t}")
    side = t + 1
    n = side * side
    rows = [range(r * side, r * side + side) for r in range(side)]
    return _from_lines(n, rows + [range(c, n, side) for c in range(side)])


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    """K_{a,b} with all a*b edges."""
    if a < 0 or b < 0:
        raise ValueError(f"class sizes must be nonnegative, got v={a} w={b}")
    return _from_lines(a, [range(a)] * b)


def pg2_incidence(q: int) -> BipartiteGraph:
    """Point-line incidence graph of the projective plane PG(2, q).

    Points and lines are both the canonical points of PG(2, q) (lines via
    duality); incidence is a vanishing dot product.  v = w = q^2 + q + 1,
    all degrees q + 1, girth 6, and the girth-6 quadratic bound is met
    with equality.  Tested for prime q up to 23.

    Each line's q + 1 points are solved for, not searched: in the order of
    _points, (1, a, b) is point a*q + b, (0, 1, b) point q^2 + b (row a = q)
    and (0, 0, 1) point q^2 + q, so each line's indices rise and the lines
    go to the row builder as they are.  That is O(q^3) work, not O(q^4).
    """
    n = q * q
    lines = []
    for l0, l1, l2 in _points(q, 3):
        if l2:  # (1, a, -(l0 + l1 a) / l2) for each a, and (0, 1, -l1 / l2)
            k = -pow(l2, -1, q)
            line = [a * q + (l0 + l1 * a) * k % q for a in range(q)] + [n + l1 * k % q]
        else:  # row a = -l0 / l1, or row q when l1 = 0, and (0, 0, 1)
            a = -l0 * pow(l1, -1, q) % q if l1 else q
            line = [*range(a * q, a * q + q), n + q]
        lines.append(line)
    return _from_lines(n + q + 1, lines)


def wq_incidence(q: int) -> BipartiteGraph:
    """Incidence graph of the symplectic generalized quadrangle W(q).

    Points are all of PG(3, q); lines are the totally isotropic
    2-subspaces of the alternating form x1*y2 - x2*y1 + x3*y4 - x4*y3.
    v = w = (q+1)(q^2+1), both sides (q+1)-regular, e = (q+1)^2 (q^2+1),
    girth exactly 8, and the cubic bound is met with equality.  Tested
    for prime q up to 19.

    Each line is solved for from the pivots (i, j) of its reduced
    row-echelon basis (r, s), so the form is never evaluated:
      (0, 1): r = (1, 0, a, b), s = (0, 1, c, d) with 1 + ad - bc = 0, so
              (a, b) != 0 and (c, d) = (x + u*a, y + u*b) for u = 0..q-1,
              from (x, y) = (1/b, 0), or (0, -1/a) when b = 0;
      (0, 2) and (1, 2): r = (1, a, 0, 0) or (0, 1, 0, 0), s = (0, 0, 1, c);
      (0, 3) and (1, 3): r = (1, a, 0, 0) or (0, 1, 0, 0), s = (0, 0, 0, 1);
    in the last four r's entries at 2 and 3 are 0, one as s's pivot column
    and the other forced by the form.  Pivots (2, 3) are never isotropic.
    That is (q+1)(q^2+1) lines.  A line's points are r + t*s
    (t = 0..q-1), then s.  In the order of _points, (1, x, y, z) is point
    x*q^2 + y*q + z, (0, 1, y, z) is q^3 + y*q + z, (0, 0, 1, z) is
    q^3 + q^2 + z and (0, 0, 0, 1) is q^3 + q^2 + q, so each line's
    indices rise.  Lines are numbered in the lexicographic order of those
    indices, and go to the row builder in that order.
    """
    _check_prime(q)
    qq, q3 = q * q, q**3
    lines = []
    for a, b in product(range(q), repeat=2):  # pivots (0, 1)
        if not (a or b):
            continue
        x, y = (pow(b, -1, q), 0) if b else (0, -pow(a, -1, q))
        for u in range(q):
            c, d = (x + u * a) % q, (y + u * b) % q
            line = [t * qq + (a + t * c) % q * q + (b + t * d) % q for t in range(q)]
            lines.append(line + [q3 + c * q + d])
    for h in range(0, q3 + 1, qq):  # r = (1, a, 0, 0) at a*q^2, then (0, 1, 0, 0) at q^3
        lines += [[h + t * q + t * c % q for t in range(q)] + [q3 + qq + c] for c in range(q)]
        lines.append([*range(h, h + q), q3 + qq + q])
    lines.sort()
    return _from_lines(q3 + qq + q + 1, lines)


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
    return _from_lines(v, [*combinations(range(v), 2)] + [(0,)] * (w - core))


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
    return _from_lines(v, [*product(range(upper), range(upper, v))] + [(0,)] * (w - core))
