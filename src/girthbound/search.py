"""Exhaustive maximum-size search for bipartite graphs under a girth floor.

Depth-first edge addition in a fixed column-major edge order (edge index
m = j*v + i for the pair (i, j)).  A partial graph is extended only when
the new edge closes no cycle shorter than the floor.  The check runs on the
paper's contraction of class V (two V-vertices joined when they share a
W-neighbour), kept as one bitmask per V-vertex: under girth >= 6 the shared
neighbour is unique, so each edge added or removed updates the masks by
XOR, and a 4- or 6-cycle test is one or two mask intersections.  Pruning
combines

  (a) a remaining-edge count bound (degree-ordering aware),
  (b) the least size bound bounds.bound_report proves for any completed
      supergraph (the cubic, quadratic, coarse or unbalanced bound), and
  (c) symmetry breaking on class W: W-vertices are used in non-increasing
      degree blocks, with lexicographically non-decreasing neighbour sets
      inside a block, so exactly one column permutation of every graph
      survives.  Class V symmetry is deliberately left unbroken.

The tree is split at fixed depth 2 (the first two chosen edges) into
independent subtrees, consumed in edge order and merged by max with
first-in-edge-order ties.  A graph that meets the bound of (b) is
optimal, so the search stops after the first subtree whose best graph
meets it; otherwise every subtree runs.  ``exhaustive`` therefore means
the maximum is proven, by the completed tree or by the bound.

The node budget applies to the whole search: the root and single-edge
nodes come first, then each subtree gets what is left, and the search
stops at the first subtree cut short.  Each subtree is self-contained and
workers' results are taken in the same order, a result that overran the
remaining budget being redone in-process with exactly that budget, so
certificates (including nodes_explored) do not depend on the worker
count.  Subtree roots are generated as they are reached, for any worker
count: a pool is fed them only as its workers take them, and its workers
are terminated once the search stops.  The time budget is a shared
absolute deadline, checked as each subtree starts and every 1024 nodes
inside it.  ``threads`` is capped by the CPU count and the number of
subtrees, and a cap of 1 starts no pool.
"""

from __future__ import annotations

import os
import time
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat

from . import bounds, graphcore
from .graphcore import BipartiteGraph


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


@dataclass(frozen=True)
class SearchCertificate:
    """Outcome of one search.

    ``witness`` achieves ``e_max`` at girth >= ``min_girth`` (re-verified
    through graphcore.girth, independently of the incremental check used
    while searching).  ``exhaustive`` is True when ``e_max`` is proven
    maximum within budget: every subtree completed, or the search stopped
    because the witness meets a proven size bound.
    """

    v: int
    w: int
    min_girth: int
    e_max: int
    witness: BipartiteGraph
    exhaustive: bool
    nodes_explored: int
    elapsed: float

    @property
    def optimality(self) -> str:
        """What proves ``e_max`` maximum: ``"bound"`` when it equals the
        least bound bounds.bound_report proves, even if the search was cut,
        ``"exhaustive"`` when only the completed tree does, ``"none"`` when
        the search was cut below that bound."""
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


def _explore_subtree(args) -> tuple[int, tuple[int, ...], int, bool]:
    """Explore every extension of a fixed edge prefix.

    Returns (best_e, best_edge_indices, nodes_visited, completed).  The
    subtree root itself is counted.  Module-level and tuple-argumented so
    it can cross a process boundary.
    """
    v, w, min_girth, prefix, cap, max_nodes, deadline = args
    best_e = len(prefix)
    best_edges = tuple(prefix)
    if time.monotonic() > deadline:
        return best_e, best_edges, 0, False
    total_edges = v * w
    amask_w = [0] * w  # V-neighbour bitmasks per W-vertex
    deg_w = [0] * w
    # Contraction masks: cmask[x] holds the V-vertices that share a
    # W-neighbour with x.  Girth >= 6 makes that neighbour unique, so adding
    # edge (i, j) sets, and removing it clears, each affected bit with one
    # XOR: N(j) in cmask[i], and i in cmask[x] for every x in N(j).
    cmask = [0] * v
    stack = list(prefix)
    for m in prefix:
        j, i = divmod(m, v)
        amask_w[j] |= 1 << i
        deg_w[j] += 1
    if prefix[0] // v == prefix[1] // v:  # the two prefix edges share their W-end
        i1, i2 = prefix[0] % v, prefix[1] % v
        cmask[i1] = 1 << i2
        cmask[i2] = 1 << i1

    nodes = 0
    completed = True

    def rec(last_m: int, e_cur: int) -> None:
        nonlocal nodes, best_e, best_edges, completed
        if nodes == max_nodes:
            completed = False
            return
        nodes += 1
        if nodes & _TIME_CHECK_MASK == 0 and time.monotonic() > deadline:
            completed = False
            return
        if e_cur > best_e:
            best_e = e_cur
            best_edges = tuple(stack)
        col = last_m // v
        ceiling = e_cur + (total_edges - last_m - 1)
        if col >= 1:
            # Degrees are non-increasing, so no later column can exceed
            # the previous one.
            by_degree = e_cur + (deg_w[col - 1] - deg_w[col]) + (w - 1 - col) * deg_w[col - 1]
            if by_degree < ceiling:
                ceiling = by_degree
        if ceiling > cap:
            ceiling = cap
        if ceiling <= best_e:
            return
        # Candidate edges in edge order: first grow the active column, then
        # open the next one, which finalizes the active column.
        segments = []
        if col == 0 or deg_w[col] < deg_w[col - 1]:
            segments.append((col, last_m + 1 - col * v))
        opens = col + 1 < w
        if opens and col >= 1 and deg_w[col] == deg_w[col - 1]:
            # The finalized pair must satisfy the block-canonical set order:
            # not when the previous column's set is lexicographically larger.
            diff = amask_w[col - 1] ^ amask_w[col]
            opens = not diff or bool(amask_w[col - 1] & (diff & -diff))
        if opens:
            segments.append((col + 1, 0))
        for j, first in segments:
            base = j * v
            nbrs = amask_w[j]
            reach = _short_cycle_mask(cmask, nbrs, min_girth)
            for i in range(first, v):
                if cmask[i] & reach:
                    continue
                ibit = 1 << i
                amask_w[j] = nbrs | ibit
                deg_w[j] += 1
                cmask[i] ^= nbrs
                rest = nbrs
                while rest:
                    low = rest & -rest
                    cmask[low.bit_length() - 1] ^= ibit
                    rest ^= low
                stack.append(base + i)
                rec(base + i, e_cur + 1)
                stack.pop()
                rest = nbrs
                while rest:
                    low = rest & -rest
                    cmask[low.bit_length() - 1] ^= ibit
                    rest ^= low
                cmask[i] ^= nbrs
                deg_w[j] -= 1
                amask_w[j] = nbrs
                if not completed:
                    return

    rec(stack[-1], len(prefix))
    return best_e, best_edges, nodes, completed


def _subtree_roots(v: int, w: int):
    """The two-edge prefixes in edge order: the second edge in column 0, or
    opening column 1."""
    for m1 in range(v):
        yield from ((m1, m2) for m2 in range(m1 + 1, v))
        if w >= 2:
            yield from ((m1, m2) for m2 in range(v, 2 * v))


def _edge_pair(v: int, m: int) -> tuple[int, int]:
    j, i = divmod(m, v)
    return i, j


def _validate(
    v: int, w: int, min_girth: int, max_nodes: int, max_seconds: float, threads: int
) -> None:
    if v < 1 or w < 1:
        raise ValueError(f"class sizes must be >= 1, got v={v} w={w}")
    if min_girth not in (6, 8):
        raise ValueError(f"min_girth must be 6 or 8, got {min_girth}")
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
    threads: int,
) -> SearchCertificate:
    """The search behind max_size and certify_bound, pruned against ``cap``.

    ``cap`` must be a proven upper bound on the maximum (``v * w`` prunes
    nothing), because the search stops at the first subtree whose best
    graph reaches it.
    """
    start = time.monotonic()
    deadline = start + max_seconds

    def args(prefix, budget):
        return (v, w, min_girth, prefix, cap, budget, deadline)

    # Depth 0..2 by hand: the root, the single-edge graphs (canonical form
    # puts the first edge in column 0), then the two-edge subtree roots in
    # edge order, generated only when the budget leaves room for them.
    nodes = min(1 + v, max_nodes)
    best_e, best_edges = (1, (0,)) if nodes > 1 else (0, ())
    exhaustive = nodes == 1 + v
    n_tasks = (v * (v - 1) // 2 + (v * v if w >= 2 else 0)) if exhaustive else 0
    tasks = _subtree_roots(v, w) if n_tasks else ()
    workers = min(threads, os.cpu_count() or 1, n_tasks)

    with ExitStack() as stack:
        results = repeat(None)  # None: explore the subtree in-process
        if workers > 1:
            import multiprocessing

            # imap feeds the pool subtree roots only as its workers take
            # them and returns their results in task order; leaving the
            # block terminates the workers still exploring.  Workers get the
            # whole budget; a result that overruns what is left is redone
            # in-process.
            pool = stack.enter_context(multiprocessing.Pool(workers))
            results = pool.imap(
                _explore_subtree, (args(prefix, max_nodes) for prefix in _subtree_roots(v, w))
            )
        for prefix in tasks:
            if best_e >= cap:
                break  # the best graph meets a proven bound, so it is optimal
            budget = max_nodes - nodes
            result = next(results)
            if result is None or result[2] > budget:
                result = _explore_subtree(args(prefix, budget))
            sub_best, sub_edges, sub_nodes, sub_done = result
            nodes += sub_nodes
            if sub_best > best_e:
                best_e, best_edges = sub_best, sub_edges
            if not sub_done:
                exhaustive = False
                break
    assert nodes <= max_nodes

    witness = graphcore.from_edges(v, w, [_edge_pair(v, m) for m in best_edges])
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

    Exhaustive completion is guaranteed under default budgets for
    v*w <= 36.  On budget exhaustion the certificate carries the best
    graph found so far with ``exhaustive=False``.
    """
    _validate(v, w, min_girth, max_nodes, max_seconds, threads)
    cap = bounds.bound_report(v, w, min_girth).binding_value
    return _search(v, w, min_girth, cap, max_nodes, max_seconds, threads)


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
    """
    _validate(v, w, min_girth, max_nodes, max_seconds, threads)
    cert = _search(v, w, min_girth, v * w, max_nodes, max_seconds, threads)
    if not cert.exhaustive:
        raise BudgetExhausted(
            f"search on (v={v}, w={w}, girth>={min_girth}) exceeded its budget"
        )
    return cert.e_max <= bounds.size_cap(v, w, min_girth)
