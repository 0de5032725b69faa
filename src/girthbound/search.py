"""Exhaustive maximum-size search for bipartite graphs under a girth floor.

max_size first tries the paper's optimal estimate for very unbalanced
graphs.  With (a, b) = (max(v, w), min(v, w)) and h = C(b, 2) at girth 6,
h = floor(b^2 / 4) at girth 8, a cell with a >= h is proven with no search:
unbalanced6(b, a) at girth 6 (and at girth 8 for b = 1, a star), or
unbalanced8(b, a) at girth 8, in the caller's orientation, has exactly
the least bound bounds.bound_report proves, a + h edges, and girth at
least the floor.  Both are checked on the witness (a failure is an internal
RuntimeError); its certificate is exhaustive with 0 nodes.  Every other
cell, and every cell certify_bound is asked about, is searched as below.

Depth-first edge addition in a fixed column-major edge order (edge index
m = j*v + i for the pair (i, j)).  The graph is kept once, as the
V-neighbour bitmask of each W-vertex (column).  A partial graph is extended
only when the new edge closes no cycle shorter than the floor.  The check
runs on the paper's contraction of class V (two V-vertices joined when they
share a W-neighbour), one bitmask per V-vertex in a list no node writes to:
a child copies its parent's list and ORs in the pairs its edge joins (or
shares it when the edge joins none), so nothing is undone after it.  A node
also carries its active column's degree, the previous column's, and the
column's reach: its V-neighbours at girth 6, and at girth 8 those with
their contraction neighbours.  An edge (i, j) into the active column j
closes a cycle shorter than the floor iff row i's contraction mask meets
the reach, so each 4- or 6-cycle test is one mask intersection.  The reach
grows in O(1): a child that adds row i gains i and, at girth 8, the
parent's contraction mask of i (the proof is at the child in rec); a child
that opens a column starts from an empty one.
The tree is cut by

  (a) a ceiling on the edges each node can still reach, from the degree
      order and the pair count (below),
  (b) a stop as soon as the best graph meets the least size bound
      bounds.bound_report proves (cubic, quadratic, coarse or unbalanced),
      which makes it optimal, and
  (c) symmetry breaking on class W: W-vertices are used in non-increasing
      degree blocks, with lexicographically non-decreasing neighbour sets
      inside a block, so exactly one column permutation of every graph
      survives; and on class V at every column: rows that columns 0..j-1
      do not tell apart (each of those columns holds both or neither)
      enter column j as a prefix, in row order.  This loses no graph.
      Order columns by degree, higher first, then by the lowest row in
      which two sets differ, the set holding it first; compare column
      sequences column by column in that order, and take G*, the least
      sorted sequence over every relabelling of V.  Let x < y be alike in
      columns 0..j-1 of G*, with y in column j and x not.  Swapping x and
      y keeps columns 0..j-1 and makes column j smaller (x, the lowest
      differing row, is now in it), so the swapped sequence, and all the
      more its sorted form, lies below G*: a contradiction.  G* is sorted,
      so it passes the rule on W too.  The rows alike in columns 0..j-1
      form runs of consecutive rows, since column j splits each run into a
      prefix and the rest, so a node carries ``heads``, a mask of the
      first row of each run (row 0 alone at the root).  Row i may join
      column j iff it heads its run or row i - 1 is in column j, and a
      column of mask m, once finalized, starts runs at the bits of
      m ^ (m << 1).  So column 0 is rows 0..d-1, and column 1, which meets
      it in at most one row (girth >= 6), is S | {d, ..., d+k-1} with
      S = {0} or empty.

The pair count is Reiman's: under girth >= 6 two V-vertices share at most
one W-neighbour, so the columns cover each pair of rows at most once and
sum_j C(d_j, 2) <= C(v, 2).  The kernel keeps the room C(v, 2) less that
sum as it goes: an edge added to a column of degree d covers d new pairs.
Each edge still to come fills a slot of some column, and the t-th slot of
a column costs its degree before the edge, so a completion's slots cost at
most the room.  The active column, of degree d with top row x, has at most
min(prev - d, v - 1 - x) slots left (prev the previous column's degree,
v for column 0), costing d, d + 1, ...; each later column has slots
costing 0, 1, ..., D - 1, for D the active column's largest reachable
degree, which no later column exceeds.  No set of slots that fits in the
room is larger than the cheapest one that does, so its size bounds the
edges any extension of girth >= 6 can add.  The ceiling cuts only
branches that cannot beat the best graph, and it uses the pair count,
never the Reiman or cubic value itself.

The search is one depth-first tree in edge order.  Its root is the empty
graph, and its one child is the single edge (0, 0), since canonical form
puts the first edge in column 0 and column 0 on a prefix of the rows.  A
branch is pruned only when it cannot strictly beat the best graph so far,
so the witness is the first graph in edge order that reaches the maximum.
``exhaustive`` means the maximum is proven, by the completed tree, by the
bound of (b), or by a construction that meets that bound (above).

The tree is searched with no more rows than columns: for v > w it runs on
(w, v), since the maximum of (v, w) is that of (w, v), and its witness is
transposed back.  The certificate, its witness and every error message
keep the caller's v and w; both orientations cost the same nodes.

A node is a graph the search builds: the empty root, and each child that
passes the cycle test and whose ceiling can still beat the best graph (in
one segment of children, growing the active column or opening the next
one, the ceiling falls as the child's row rises, so the first child cut
ends the segment).

The node budget, an integer, applies to the whole search, the empty root
included, and a graph is credited only once its node is counted.  The
time budget is an absolute deadline.  Both budgets are checked before a
child is counted, the clock only when the count is a multiple of 1024,
so a search cut by either budget reports exactly the graphs it built.
The tree is walked by a recursive function, one call per edge, so a
search whose graphs outgrow Python's recursion limit raises ValueError.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import namedtuple

from . import bounds, graphcore


__all__ = [
    "BudgetExhausted",
    "DEFAULT_MAX_NODES",
    "DEFAULT_MAX_SECONDS",
    "SearchCertificate",
    "certify_bound",
    "max_size",
]

DEFAULT_MAX_NODES = 10 ** 8
DEFAULT_MAX_SECONDS = 60.0

_TIME_CHECK_MASK = 0x3FF  # read the clock when the node count is a multiple of 1024


class SearchCertificate(
    namedtuple(
        "SearchCertificate",
        "v w min_girth e_max witness exhaustive nodes_explored elapsed",
    )
):
    """Outcome of one search.

    ``witness``, a BipartiteGraph, achieves ``e_max`` at girth >=
    ``min_girth`` (re-verified through graphcore.girth, independently of
    the incremental check used while searching).  ``exhaustive`` is True
    when ``e_max`` is proven maximum within budget: the tree completed, the
    search stopped because the witness meets a proven size bound, or the
    witness is an unbalanced family member that meets it, built with no
    search (``nodes_explored`` 0).
    """

    __slots__ = ()

    @property
    def optimality(self) -> str:
        """What proves ``e_max`` maximum: ``"bound"`` when it equals the
        least bound bounds.bound_report proves (the search stops there, and
        the unbalanced family meets it with no search), ``"exhaustive"``
        when only the completed tree does, ``"none"`` when the search was
        cut."""
        if self.e_max == bounds.bound_report(self.v, self.w, self.min_girth).binding_value:
            return "bound"
        return "exhaustive" if self.exhaustive else "none"


class BudgetExhausted(RuntimeError):
    """A search stopped on its node or time budget; the result is only a
    lower bound, so certification is indeterminate."""


@functools.lru_cache(maxsize=4096)
def _slots(room: int, deg: int, grow: int, later: int) -> int:
    """Most edges that fit in ``room`` pair counts: the number of cheapest
    slots whose costs sum to at most ``room``.

    The active column, of degree ``deg``, has ``grow`` slots left, costing
    deg, deg + 1, ...; each of the ``later`` columns after it has slots
    costing 0, 1, ..., deg + grow - 1 (no later column outgrows it).

    A search asks for few distinct arguments (the 668,976 calls of every
    cell with v, w <= 9 at both girths take 968), so the loop is memoized,
    in a cache of fixed size that no long search can grow.
    """
    k = 0
    for c in range(deg + grow):
        n = later + 1 if c >= deg else later
        if c * n > room:
            return k + room // c
        room -= c * n
        k += n
    return k


def _explore(
    v: int,
    w: int,
    min_girth: int,
    cap: int,
    max_nodes: int,
    deadline: float,
) -> tuple[int, tuple[int, ...], int, bool]:
    """Explore every canonical graph, from the empty root.

    Returns (best_e, best_masks, nodes_visited, completed): best_masks are
    the best graph's column masks up to its last nonempty column, at most
    one per edge, and completed is False only when a budget cut the tree.
    The root is the first node, and a graph is credited only once its node
    is counted.
    """
    amask_w = [0] * w  # the graph: V-neighbour bitmasks per W-vertex
    best_e, best_masks = 0, ()
    nodes = 1  # the root
    completed = True
    far = -1 if min_girth == 8 else 0  # girth 8 also tests 6-cycles

    def rec(
        col: int,
        top: int,
        e_cur: int,
        room: int,
        cmask: list[int],
        reach: int,
        deg: int,
        prev: int,
        heads: int,
    ) -> bool:
        """Expand a counted node whose active column ``col`` has top row
        ``top`` (-1 when empty); True stops the whole search.  ``room`` is
        C(v, 2) less the pairs of V-vertices the graph's columns cover.
        ``cmask`` is the node's contraction, which no call writes to:
        cmask[x] holds the V-vertices that share a W-neighbour with x.
        ``reach`` is the active column's cycle mask (module docstring):
        adding row i to it closes a short cycle iff cmask[i] & reach.
        ``deg`` is the active column's degree and ``prev`` the previous
        column's (v for column 0), so no node counts a column's bits.
        ``heads`` marks the first row of each run of rows that the columns
        before ``col`` leave alike (module docstring, (c))."""
        nonlocal nodes, best_e, best_masks, completed
        if e_cur > best_e:
            best_e = e_cur
            best_masks = tuple(amask_w[: col + 1])
            if best_e >= cap:
                return True  # it meets a proven bound, so it is optimal
        later = w - 1 - col
        # Candidate edges in edge order, each segment with its first row,
        # its child's run heads, degrees, later columns and room, and the
        # cycle mask its rows are tested against: first grow the active
        # column, then open the next one, which finalizes it and is tested
        # against an empty mask.
        segments = []
        if deg < prev:
            segments.append((col, top + 1, heads, deg + 1, prev, later, room - deg, reach))
        opens = later > 0 and deg > 0  # the root opens no column
        if opens and col and deg == prev:
            # The finalized pair must satisfy the block-canonical set order:
            # not when the previous column's set is lexicographically larger.
            diff = amask_w[col - 1] ^ amask_w[col]
            opens = not diff or amask_w[col - 1] & (diff & -diff)
        if opens:
            # The finalized column splits each run where its mask changes.
            m = amask_w[col]
            segments.append((col + 1, 0, heads | m ^ m << 1, 1, deg, later - 1, room, 0))
        e_next = e_cur + 1
        for j, start, child_heads, child_deg, child_prev, after, left, mask in segments:
            nbrs = amask_w[j]
            joins = child_heads | nbrs << 1  # run heads, and rows right above N(j)
            grow = child_prev - child_deg  # the child column's slots left
            ceiling = None
            for i in range(start, v):
                if cmask[i] & mask or not joins >> i & 1:
                    continue
                # The child's ceiling falls as its top row i rises, so the
                # first child that cannot beat best_e ends the segment.  It
                # is the same for every child with at least ``grow`` rows
                # above it, so it is computed once, at the first child that
                # passes both tests (``left`` may be negative, and
                # _slots divide by zero, in a segment where none passes).
                above = v - 1 - i  # the rows left above the child's top row
                if above < grow:
                    ceiling = e_next + _slots(left, child_deg, above, after)
                elif ceiling is None:
                    ceiling = e_next + _slots(left, child_deg, grow, after)
                if ceiling <= best_e:
                    break
                if nodes == max_nodes or (
                    nodes & _TIME_CHECK_MASK == 0 and time.monotonic() > deadline
                ):
                    completed = False
                    return True
                nodes += 1
                ibit = 1 << i
                amask_w[j] = nbrs | ibit
                # Edge (i, j) joins i to each x in N(j).  The test above
                # found cmask[i] & mask == 0 with mask holding N(j), so no
                # bit of N(j) is in cmask[i]; and i is in no cmask[x] for x
                # in N(j), since x would then be in cmask[i].  So the child's
                # contraction only gains bits.  An edge that opens a column
                # joins nothing, and its child shares the parent's list.
                child = cmask
                if nbrs:
                    child = cmask[:]
                    child[i] |= nbrs
                    rest = nbrs
                    while rest:
                        low = rest & -rest
                        child[low.bit_length() - 1] |= ibit
                        rest ^= low
                # The child's reach.  At girth 6 it is N'(j) = N(j) | {i}.
                # At girth 8, with cm the parent's contraction, the child has
                # cm'[i] = cm[i] | N(j) and cm'[x] = cm[x] | {i} for x in
                # N(j), so N'(j) | (the union of cm'[x] over x in N'(j)) is
                # mask | {i} | cm[i]: the parent's reach, i and cm[i].
                child_reach = mask | ibit | (cmask[i] & far)
                if rec(j, i, e_next, left, child, child_reach, child_deg, child_prev, child_heads):
                    return True  # amask_w is left dirty: nothing reads it again
                amask_w[j] = nbrs
        return False

    rec(0, -1, 0, v * (v - 1) // 2, [0] * v, 0, 0, v, 1)  # the empty graph shares no neighbour
    return best_e, best_masks, nodes, completed


def _validate(v: int, w: int, max_nodes: int, max_seconds: float, threads: int) -> None:
    """Check the budgets and the largest class; bounds checks the least
    class size and the girth floor."""
    limit = graphcore.MAX_JSON_CLASS_SIZE  # the witness is built per vertex
    if v > limit or w > limit:
        raise ValueError(f"search takes classes of at most {limit} vertices, got v={v} w={w}")
    # The search stops at nodes == max_nodes; a bool is no budget.
    if not isinstance(max_nodes, int) or isinstance(max_nodes, bool):
        raise ValueError(f"node budget must be an integer, got {max_nodes!r}")
    if isinstance(max_seconds, bool):
        raise ValueError(f"time budget must be a number, got {max_seconds!r}")
    if isinstance(threads, bool):
        raise ValueError(f"threads must be an integer, got {threads!r}")
    if max_nodes < 1 or not max_seconds > 0:  # NaN fails this test too
        raise ValueError("budgets must be positive")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _search(
    v: int,
    w: int,
    min_girth: int,
    cap: int,
    max_nodes: int,
    max_seconds: float,
) -> SearchCertificate:
    """The search behind max_size and certify_bound, stopped at ``cap``.

    ``cap`` must be a proven upper bound on the maximum (``v * w`` stops
    nothing early), because the search stops as soon as its best graph
    reaches it.  The tree runs with no more rows than columns.
    """
    start = time.monotonic()
    rows, cols = sorted((v, w))
    try:
        best_e, best_masks, nodes, exhaustive = _explore(
            rows, cols, min_girth, cap, max_nodes, start + max_seconds
        )
    except RecursionError:
        raise ValueError(
            f"search on v={v} w={w} recurses once per edge, past Python's"
            f" recursion limit of {sys.getrecursionlimit()}"
        ) from None
    lines = [[i for i in range(rows) if mask >> i & 1] for mask in best_masks]
    witness = graphcore._from_lines(rows, lines + [()] * (cols - len(lines)))
    return _certificate(v, w, min_girth, witness, exhaustive, nodes, start)


def _certificate(
    v: int,
    w: int,
    min_girth: int,
    witness: graphcore.BipartiteGraph,
    exhaustive: bool,
    nodes: int,
    start: float,
) -> SearchCertificate:
    """The certificate for ``witness``, given with no more rows than
    columns and transposed here for v > w, after graphcore.girth has
    checked it against the floor.

    The transpose hands the validated adjacency tuples, swapped, to
    graphcore's assembler, which lists the edges from the old ``adj_w`` in
    O(e) and repeats no check the witness has passed."""
    if v > w:
        witness = graphcore._assemble(v, w, witness.adj_w, witness.adj_v)
    report = graphcore.girth(witness)
    if report.girth is not None and report.girth < min_girth:
        raise RuntimeError(
            f"internal error: witness girth {report.girth} below floor {min_girth}"
        )
    return SearchCertificate(
        v=v,
        w=w,
        min_girth=min_girth,
        e_max=witness.e,
        witness=witness,
        exhaustive=exhaustive,
        nodes_explored=nodes,
        elapsed=time.monotonic() - start,
    )


def max_size(
    v: int,
    w: int,
    min_girth: int,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_seconds: float = DEFAULT_MAX_SECONDS,
    threads: int = 1,
) -> SearchCertificate:
    """Maximum number of edges of a bipartite graph on (v, w) vertices with
    girth >= min_girth, with a witness and an exhaustiveness certificate.

    A cell in the unbalanced regime (module docstring) is proven by its
    construction, with no search and no budget spent.  Exhaustive
    completion is guaranteed under default budgets for v*w <= 64.  On
    budget exhaustion the certificate carries the best graph found so far
    with ``exhaustive=False``.  ``threads`` must be at least 1 and changes
    nothing: the search runs in the calling process.
    """
    _validate(v, w, max_nodes, max_seconds, threads)
    cap = bounds.bound_report(v, w, min_girth).binding_value
    a, b = max(v, w), min(v, w)
    if a < (b * (b - 1) // 2 if min_girth == 6 else b * b // 4):
        return _search(v, w, min_girth, cap, max_nodes, max_seconds)
    # The unbalanced regime: the family member has exactly ``cap`` edges.
    from . import constructions

    start = time.monotonic()
    if min_girth == 8 and b >= 2:
        witness = constructions.unbalanced8(b, a)
    else:  # girth 6, or a star
        witness = constructions.unbalanced6(b, a)
    cert = _certificate(v, w, min_girth, witness, True, 0, start)
    if cert.e_max != cap:
        raise RuntimeError(
            f"internal error: construction has {cert.e_max} edges, not the bound {cap}"
        )
    return cert


def certify_bound(
    v: int,
    w: int,
    min_girth: int,
    max_nodes: int = DEFAULT_MAX_NODES,
    max_seconds: float = DEFAULT_MAX_SECONDS,
    threads: int = 1,
) -> bool:
    """True iff the searched maximum respects the matching size bound.

    Girth 8 compares against the cubic bound, girth 6 against the
    quadratic one.  The search behind it prunes only by the pair count
    that every graph of girth >= 6 satisfies (see the module docstring),
    never by the Reiman or cubic value, and it does not stop at any bound,
    so the comparison checks the bound instead of assuming it.  A
    non-exhaustive search cannot certify either way and raises
    BudgetExhausted.
    ``threads`` is checked as in max_size and changes nothing.
    """
    _validate(v, w, max_nodes, max_seconds, threads)
    cap = bounds.size_cap(v, w, min_girth)
    cert = _search(v, w, min_girth, v * w, max_nodes, max_seconds)
    if not cert.exhaustive:
        raise BudgetExhausted(
            f"search on (v={v}, w={w}, girth>={min_girth}) exceeded its budget"
        )
    return cert.e_max <= cap
