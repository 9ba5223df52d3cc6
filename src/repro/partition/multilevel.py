"""Multilevel graph bisection (METIS-style): heavy-edge matching coarsening,
greedy graph-growing initial partition, and KL/FM boundary refinement during
uncoarsening.  K-way partitions come from recursive bisection with
proportional weight targets.

Every stage works on the graph's CSR arrays.  The inherently sequential
walks (the randomised matching visit and the breadth-first searches) run
over plain Python lists taken once per call; contraction and the FM gain
scan are array operations.  Visit orders, tie-breaks and float summation
orders are those of a per-vertex loop: ``np.bincount`` adds its weights in
input order, and ``np.argmax`` returns the first maximum, which is the
vertex a strict ``>`` scan in index order would keep.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.partition.graph import Graph

__all__ = ["multilevel", "heavy_edge_matching", "coarsen_graph", "fm_refine"]

_COARSEST = 48       # stop coarsening below this many vertices
_MIN_SHRINK = 0.9    # or when a level shrinks less than this factor
_FM_PASSES = 6
_BALANCE_TOL = 1.04  # allowed part-weight overshoot during refinement


def heavy_edge_matching(graph: Graph, seed: int = 0) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbour.

    Returns ``match`` with ``match[v] == u`` (and ``match[u] == v``);
    unmatched vertices map to themselves.  Visit order is randomised (but
    seeded) to avoid systematic bias; among equally heavy candidates the
    first in adjacency order wins.
    """
    n = graph.num_vertices
    xadj = graph.xadj.tolist()
    adjncy = graph.adjncy.tolist()
    ewgt = graph.ewgt.tolist()
    match = [-1] * n
    rng = np.random.default_rng(seed)
    for v in rng.permutation(n).tolist():
        if match[v] != -1:
            continue
        best, best_w = v, -np.inf
        for k in range(xadj[v], xadj[v + 1]):
            u = adjncy[k]
            if match[u] == -1 and u != v and ewgt[k] > best_w:
                best, best_w = u, ewgt[k]
        match[v] = best
        match[best] = v
    return np.asarray(match, dtype=np.int64)


def coarsen_graph(graph: Graph, match: np.ndarray) -> Tuple[Graph, np.ndarray]:
    """Contract matched pairs; returns (coarse graph, fine->coarse map).

    Coarse vertices are numbered in the order of the lower fine id of each
    pair.  Coarse vertex weights, coordinates and edge weights are sums
    over the fine graph in vertex order, then adjacency order.
    """
    n = graph.num_vertices
    match = np.asarray(match, dtype=np.int64)
    ids = np.arange(n)
    if len(match) != n or np.any(match < 0) or np.any(match >= n) or np.any(match[match] != ids):
        raise ValueError("match must be a symmetric matching of the graph's vertices")
    leader = match >= ids
    nc = int(leader.sum())
    cmap = np.cumsum(leader) - 1
    cmap = np.where(leader, cmap, cmap[match])
    vwgt = np.bincount(cmap, weights=graph.vwgt, minlength=nc)
    coords = None
    if graph.coords is not None:
        counts = np.bincount(cmap, minlength=nc)
        coords = np.column_stack([
            np.bincount(cmap, weights=graph.coords[:, d], minlength=nc) / counts
            for d in range(graph.coords.shape[1])
        ])
    # coarse edges: group fine edges by (cv, cu) with a stable sort, so each
    # group's weights are summed in their original CSR order
    cv = np.repeat(cmap, np.diff(graph.xadj))
    cu = cmap[graph.adjncy]
    cross = cv != cu
    key = cv[cross] * nc + cu[cross]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    group = np.cumsum(first) - 1
    ukey = key[first]
    ewgt = np.bincount(group, weights=graph.ewgt[cross][order], minlength=len(ukey))
    xadj = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(ukey // nc, minlength=nc), out=xadj[1:])
    coarse = Graph(xadj, ukey % nc, vwgt, ewgt, coords)
    return coarse, cmap


def _bfs(xadj: List[int], adjncy: List[int], start: int) -> Tuple[List[int], List[int]]:
    """Breadth-first search over CSR lists.

    Returns ``(order, dist)``: the vertices reached from ``start`` in visit
    order (neighbours in adjacency order), and hop distances with -1 for
    unreached vertices.  ``order`` doubles as the FIFO queue.
    """
    dist = [-1] * (len(xadj) - 1)
    dist[start] = 0
    order = [start]
    for v in order:
        d = dist[v] + 1
        for u in adjncy[xadj[v] : xadj[v + 1]]:
            if dist[u] < 0:
                dist[u] = d
                order.append(u)
    return order, dist


def _greedy_grow(graph: Graph, target: float, seed: int) -> np.ndarray:
    """Initial bisection: BFS-grow part 0 from a pseudo-peripheral vertex.

    Part 0 takes vertices in breadth-first order from the start vertex
    until its weight reaches ``target``; if the start's component runs
    out first (disconnected graph), it takes the remaining vertices in
    index order.
    """
    n = graph.num_vertices
    part = np.ones(n, dtype=np.int64)
    if n == 0:
        return part
    xadj = graph.xadj.tolist()
    adjncy = graph.adjncy.tolist()
    rng = np.random.default_rng(seed)
    start = int(rng.integers(n))
    # pseudo-peripheral: walk twice to the (lowest-id) farthest vertex
    for _ in range(2):
        _, dist = _bfs(xadj, adjncy, start)
        start = dist.index(max(dist))
    order, dist = _bfs(xadj, adjncy, start)
    order += [v for v in range(n) if dist[v] < 0]
    vwgt = graph.vwgt.tolist()
    grown, taken = 0.0, 0
    while taken < n and grown < target:
        grown += vwgt[order[taken]]
        taken += 1
    part[order[:taken]] = 0
    return part


def fm_refine(
    graph: Graph,
    part: np.ndarray,
    targets: Tuple[float, float],
    passes: int = _FM_PASSES,
) -> np.ndarray:
    """Boundary KL/FM refinement of a bisection (in place, also returned).

    Greedy gain passes: move the best-gain movable boundary vertex whose
    move keeps both sides within ``_BALANCE_TOL`` of target, lock it, and
    repeat; a pass with no accepted positive-or-balancing move ends the
    refinement.  Ties go to the lowest vertex id.

    Each vertex's internal and external edge weight is computed once, in
    adjacency order, and after a move only the moved vertex and its
    neighbours are recomputed, so every gain equals a fresh scan's.
    """
    n = graph.num_vertices
    if n == 0:
        return part
    xadj = graph.xadj.tolist()
    adjncy = graph.adjncy.tolist()
    ewgt = graph.ewgt.tolist()
    vwgt = graph.vwgt
    vwgt_list = vwgt.tolist()
    side = part.tolist()

    src = np.repeat(np.arange(n), np.diff(graph.xadj))
    same = part[src] == part[graph.adjncy]
    internal = np.bincount(src[same], weights=graph.ewgt[same], minlength=n)
    external = np.bincount(src[~same], weights=graph.ewgt[~same], minlength=n)
    gain = external - internal
    interior = (external == 0.0) & (internal > 0.0)

    weights = np.bincount(part, weights=vwgt, minlength=2).tolist()
    limits = (targets[0] * _BALANCE_TOL, targets[1] * _BALANCE_TOL)

    for _ in range(passes):
        # locked and interior vertices score -inf, which never wins
        locked = [False] * n
        score = np.where(interior, -np.inf, gain)
        improved = False
        while True:
            candidates = score
            best_v = int(np.argmax(candidates))
            dest = 1 - side[best_v]
            if weights[dest] + vwgt_list[best_v] > limits[dest]:
                # the best move would overfill its destination: drop every
                # move that would, then take the first maximum of the rest
                too_heavy = np.where(
                    part == 0, weights[1] + vwgt > limits[1], weights[0] + vwgt > limits[0]
                )
                candidates = np.where(too_heavy, -np.inf, score)
                best_v = int(np.argmax(candidates))
                dest = 1 - side[best_v]
            best_gain = float(candidates[best_v])
            if best_gain < 0:
                break  # also -inf: nothing left to move
            src_side = 1 - dest
            if best_gain == 0 and weights[src_side] <= targets[src_side]:
                break  # zero-gain move with nothing to rebalance
            side[best_v] = part[best_v] = dest
            weights[src_side] -= vwgt_list[best_v]
            weights[dest] += vwgt_list[best_v]
            locked[best_v] = True
            score[best_v] = -np.inf
            for w in adjncy[xadj[best_v] : xadj[best_v + 1]] + [best_v]:
                pw = side[w]
                int_ = ext = 0.0
                for k in range(xadj[w], xadj[w + 1]):
                    if side[adjncy[k]] == pw:
                        int_ += ewgt[k]
                    else:
                        ext += ewgt[k]
                gain[w] = ext - int_
                interior[w] = ext == 0.0 and int_ > 0.0
                if not locked[w]:
                    score[w] = -np.inf if interior[w] else gain[w]
            improved = True
        if not improved:
            break
    return part


def _multilevel_bisect(graph: Graph, target_frac: float, seed: int) -> np.ndarray:
    """Bisect ``graph`` into parts of weight ≈ (target_frac, 1-target_frac)."""
    total = graph.total_weight()
    targets = (target_frac * total, (1 - target_frac) * total)

    # coarsening ladder: graphs[i + 1] contracts graphs[i] through cmaps[i]
    graphs = [graph]
    cmaps: List[np.ndarray] = []
    while graphs[-1].num_vertices > _COARSEST:
        current = graphs[-1]
        match = heavy_edge_matching(current, seed=seed + len(graphs))
        coarse, cmap = coarsen_graph(current, match)
        if coarse.num_vertices >= _MIN_SHRINK * current.num_vertices:
            break
        graphs.append(coarse)
        cmaps.append(cmap)

    # initial partition on the coarsest level
    part = _greedy_grow(graphs[-1], targets[0], seed)
    part = fm_refine(graphs[-1], part, targets)

    # uncoarsen + refine
    for fine, cmap in zip(reversed(graphs[:-1]), reversed(cmaps)):
        part = fm_refine(fine, part[cmap], targets)
    return part


def multilevel(graph: Graph, nparts: int, seed: int = 0) -> np.ndarray:
    """K-way partition by recursive multilevel bisection."""
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    part = np.zeros(graph.num_vertices, dtype=np.int64)
    if nparts == 1 or graph.num_vertices == 0:
        return part
    _recurse(graph, np.arange(graph.num_vertices), 0, nparts, part, seed)
    return part


def _recurse(
    root: Graph, ids: np.ndarray, first_part: int, nparts: int, out: np.ndarray, seed: int
) -> None:
    if nparts == 1 or len(ids) == 0:
        out[ids] = first_part
        return
    left = nparts // 2
    right = nparts - left
    sub, orig = root.subgraph(ids)
    bisection = _multilevel_bisect(sub, left / nparts, seed)
    left_ids = orig[bisection == 0]
    right_ids = orig[bisection == 1]
    if len(left_ids) == 0 or len(right_ids) == 0:
        # degenerate bisection (tiny graph): fall back to a weight split
        order = orig
        cum = np.cumsum(root.vwgt[order])
        split = int(np.searchsorted(cum, (left / nparts) * cum[-1])) + 1
        split = max(1, min(split, len(order) - 1))
        left_ids, right_ids = order[:split], order[split:]
    _recurse(root, left_ids, first_part, left, out, seed + 1)
    _recurse(root, right_ids, first_part + left, right, out, seed + 2)
