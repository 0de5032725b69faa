"""Exhaustive maximum-size search for bipartite graphs under a girth floor.

Depth-first edge addition in a fixed column-major edge order (edge index
m = j*v + i for the pair (i, j)).  The graph is kept once, as the
V-neighbour bitmask of each W-vertex (column).  A partial graph is extended
only when the new edge closes no cycle shorter than the floor.  The check
runs on the paper's contraction of class V (two V-vertices joined when they
share a W-neighbour), kept as one bitmask per V-vertex: under girth >= 6
the shared neighbour is unique, so each edge added or removed updates the
masks by XOR, and a 4- or 6-cycle test is one or two mask intersections.
The tree is cut by

  (a) a remaining-edge count bound (degree-ordering aware) at each node,
  (b) a stop as soon as the best graph meets the least size bound
      bounds.bound_report proves (cubic, quadratic, coarse or unbalanced),
      which makes it optimal, and
  (c) symmetry breaking on class W: W-vertices are used in non-increasing
      degree blocks, with lexicographically non-decreasing neighbour sets
      inside a block, so exactly one column permutation of every graph
      survives; and on class V at columns 0 and 1: the first W-vertex's
      neighbours are rows 0..d-1, and the second's are S | {d, ..., d+k-1}
      with S = {0} or empty.  This loses no graph (girth >= 6): take a
      W-vertex A of maximum degree d, then among the rest a W-vertex B of
      greatest degree, one that meets A if any does; B meets A in at most
      one row.  Relabel V so that A's neighbours are 0..d-1, their common
      row (if any) is 0, and B's other neighbours are d, d+1, ...  A is
      the least d-set in this order (the lowest differing bit lies in it),
      so the canonical column order puts it first, and B is the least set
      of its degree among the rest.  Against another such set C: if B
      holds row 0 and C does not, row 0 decides; otherwise C meets A only
      in a row B also holds (girth >= 6, and the choice of B), so C's rows
      outside B lie above B's block d..d+k-1, and that block decides.

The search is one depth-first tree in edge order.  Its root is the empty
graph, and its one child is the single edge (0, 0), since canonical form
puts the first edge in column 0 and column 0 on a prefix of the rows.  A
branch is pruned only when it cannot strictly beat the best graph so far,
so the witness is the first graph in edge order that reaches the maximum.
``exhaustive`` means the maximum is proven, by the completed tree or by the
bound of (b).

The node budget applies to the whole search, the empty root included, and
a graph is credited only once its node is counted.  The time budget is an
absolute deadline, checked every 1024 nodes.  The tree is walked by a
recursive function, one call per edge, so a search whose graphs outgrow
Python's recursion limit raises ValueError.
"""

from __future__ import annotations

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

_TIME_CHECK_MASK = 0x3FF  # poll the clock every 1024 nodes


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
    when ``e_max`` is proven maximum within budget: the tree completed, or
    the search stopped because the witness meets a proven size bound.
    """

    __slots__ = ()

    @property
    def optimality(self) -> str:
        """What proves ``e_max`` maximum: ``"bound"`` when it equals the
        least bound bounds.bound_report proves (the search stops there),
        ``"exhaustive"`` when only the completed tree does, ``"none"`` when
        the search was cut."""
        if self.e_max == bounds.bound_report(self.v, self.w, self.min_girth).binding_value:
            return "bound"
        return "exhaustive" if self.exhaustive else "none"


class BudgetExhausted(RuntimeError):
    """A search stopped on its node or time budget; the result is only a
    lower bound, so certification is indeterminate."""


def _short_cycle_mask(cmask: list[int], col_mask: int, min_girth: int) -> int:
    """Mask R for a W-vertex j with V-neighbour mask ``col_mask``: adding the
    edge (i, j) closes a cycle shorter than ``min_girth`` iff cmask[i] & R.

    ``cmask[x]`` is the set of V-vertices sharing a W-neighbour with x (x's
    neighbourhood in the contraction) in a graph of girth >= 6.  A 4-cycle
    through the new edge is a path i - y - x - j: a contraction neighbour
    of i adjacent to j.  A 6-cycle is a path i - y - z - y' - x - j: a
    contraction neighbour z of i that is a contraction neighbour of some x
    adjacent to j.
    """
    if min_girth == 6:
        return col_mask
    reach = col_mask
    rest = col_mask
    while rest:
        low = rest & -rest
        reach |= cmask[low.bit_length() - 1]
        rest ^= low
    return reach


def _explore(
    v: int,
    w: int,
    min_girth: int,
    cap: int,
    max_nodes: int,
    deadline: float,
) -> tuple[int, tuple[int, ...], int, bool]:
    """Explore every canonical extension of the single edge (0, 0).

    Returns (best_e, best_masks, nodes_visited, completed): best_masks are
    the best graph's column masks up to its last nonempty column, at most
    one per edge, and completed is False only when a budget cut the tree.
    The node (0, 0) itself is counted, and a graph is credited only once its
    node is: with no node to spend this returns (0, (), 0, False).
    """
    amask_w = [0] * w  # the graph: V-neighbour bitmasks per W-vertex
    amask_w[0] = 1
    # Contraction masks: cmask[x] holds the V-vertices that share a
    # W-neighbour with x.  Girth >= 6 makes that neighbour unique, so adding
    # edge (i, j) sets, and removing it clears, each affected bit with one
    # XOR: N(j) in cmask[i], and i in cmask[x] for every x in N(j).  With
    # one edge no two V-vertices share a W-neighbour, so they start empty.
    cmask = [0] * v
    best_e, best_masks = 0, ()  # rec credits the edge (0, 0) when it visits it
    total_edges = v * w

    nodes = 0
    completed = True

    def rec(last_m: int, e_cur: int) -> bool:
        """Visit a node and its extensions; True stops the whole search."""
        nonlocal nodes, best_e, best_masks, completed
        if nodes == max_nodes:
            completed = False
            return True
        nodes += 1
        if nodes & _TIME_CHECK_MASK == 0 and time.monotonic() > deadline:
            completed = False
            return True
        col = last_m // v
        if e_cur > best_e:
            best_e = e_cur
            best_masks = tuple(amask_w[: col + 1])
            if best_e >= cap:
                return True  # it meets a proven bound, so it is optimal
        deg = amask_w[col].bit_count()
        ceiling = e_cur + (total_edges - last_m - 1)
        if col >= 1:
            # Degrees are non-increasing, so no later column can exceed
            # the previous one.
            prev = amask_w[col - 1].bit_count()
            by_degree = e_cur + (prev - deg) + (w - 1 - col) * prev
            if by_degree < ceiling:
                ceiling = by_degree
        if ceiling <= best_e:
            return False
        # Candidate edges in edge order: first grow the active column, then
        # open the next one, which finalizes the active column.
        segments = []
        if col == 0:
            # Class V symmetry: column 0 holds rows 0..d-1, so it grows
            # only by its next row.
            segments.append((0, range(last_m + 1, v)[:1]))
        elif deg < prev:
            rows = range(last_m + 1 - col * v, v)
            if col == 1:
                # Class V symmetry: column 1 is S | {d, d+1, ...} with S
                # {0} or empty, so from {0} it grows only by row d, and
                # from a top row x >= d only by row x + 1.
                rows = range(max(rows.start, prev), v)[:1]
            segments.append((col, rows))
        opens = col + 1 < w
        if opens and col >= 1 and deg == prev:
            # The finalized pair must satisfy the block-canonical set order:
            # not when the previous column's set is lexicographically larger.
            diff = amask_w[col - 1] ^ amask_w[col]
            opens = not diff or bool(amask_w[col - 1] & (diff & -diff))
        if opens:
            # Column 1 opens only on row 0 or row d = deg(column 0).
            segments.append((col + 1, range(0, v, deg)[:2] if col == 0 else range(v)))
        for j, rows in segments:
            base = j * v
            nbrs = amask_w[j]
            reach = _short_cycle_mask(cmask, nbrs, min_girth)
            for i in rows:
                if cmask[i] & reach:
                    continue
                ibit = 1 << i
                amask_w[j] = nbrs | ibit
                cmask[i] ^= nbrs
                rest = nbrs
                while rest:
                    low = rest & -rest
                    cmask[low.bit_length() - 1] ^= ibit
                    rest ^= low
                if rec(base + i, e_cur + 1):
                    return True  # the masks are left dirty: nothing reads them again
                rest = nbrs
                while rest:
                    low = rest & -rest
                    cmask[low.bit_length() - 1] ^= ibit
                    rest ^= low
                cmask[i] ^= nbrs
                amask_w[j] = nbrs
        return False

    try:
        rec(0, 1)
    except RecursionError:
        raise ValueError(
            f"search on v={v} w={w} recurses once per edge, past Python's"
            f" recursion limit of {sys.getrecursionlimit()}"
        ) from None
    return best_e, best_masks, nodes, completed


def _validate(v: int, w: int, max_nodes: int, max_seconds: float, threads: int) -> None:
    """Check the budgets and the largest class; bounds checks the least
    class size and the girth floor."""
    limit = graphcore.MAX_JSON_CLASS_SIZE  # the witness is built per vertex
    if v > limit or w > limit:
        raise ValueError(f"search takes classes of at most {limit} vertices, got v={v} w={w}")
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
    reaches it.
    """
    start = time.monotonic()
    # The empty root is one node; the tree from the edge (0, 0) gets the rest.
    best_e, best_masks, nodes, exhaustive = _explore(
        v, w, min_girth, cap, max_nodes - 1, start + max_seconds
    )

    witness = graphcore.from_edges(
        v, w, [(i, j) for j, mask in enumerate(best_masks) for i in graphcore._bits(mask)]
    )
    report = graphcore.girth(witness)
    if report.girth is not None and report.girth < min_girth:
        raise RuntimeError(
            f"internal error: witness girth {report.girth} below floor {min_girth}"
        )
    return SearchCertificate(
        v=v,
        w=w,
        min_girth=min_girth,
        e_max=best_e,
        witness=witness,
        exhaustive=exhaustive,
        nodes_explored=nodes + 1,
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

    Exhaustive completion is guaranteed under default budgets for
    v*w <= 64.  On budget exhaustion the certificate carries the best
    graph found so far with ``exhaustive=False``.  ``threads`` must be at
    least 1 and changes nothing: the search runs in the calling process.
    """
    _validate(v, w, max_nodes, max_seconds, threads)
    cap = bounds.bound_report(v, w, min_girth).binding_value
    return _search(v, w, min_girth, cap, max_nodes, max_seconds)


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
    quadratic one.  The search behind it prunes against no bound, so the
    comparison checks the bound instead of assuming it.  A non-exhaustive
    search cannot certify either way and raises BudgetExhausted.
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
