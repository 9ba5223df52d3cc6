"""Weighted undirected graph in CSR form, built from the mesh dual.

A :class:`Graph` is four arrays: ``xadj`` (row offsets), ``adjncy``
(neighbour ids, each row sorted for mesh duals), ``vwgt`` and ``ewgt``,
plus optional per-vertex coordinates.  Induced subgraphs and mesh duals
are built with array indexing; rows keep their neighbour order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mesh.mesh2d import TriMesh

__all__ = ["Graph", "mesh_dual_graph"]


class Graph:
    """CSR graph with vertex weights, edge weights, and coordinates."""

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        vwgt: Optional[np.ndarray] = None,
        ewgt: Optional[np.ndarray] = None,
        coords: Optional[np.ndarray] = None,
    ):
        self.xadj = np.asarray(xadj, dtype=np.int64)
        self.adjncy = np.asarray(adjncy, dtype=np.int64)
        n = len(self.xadj) - 1
        if n < 0:
            raise ValueError("xadj must have at least one entry")
        if self.xadj[0] != 0 or self.xadj[-1] != len(self.adjncy):
            raise ValueError("inconsistent CSR structure")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        self.vwgt = (
            np.ones(n, dtype=np.float64) if vwgt is None else np.asarray(vwgt, dtype=np.float64)
        )
        self.ewgt = (
            np.ones(len(self.adjncy), dtype=np.float64)
            if ewgt is None
            else np.asarray(ewgt, dtype=np.float64)
        )
        if len(self.vwgt) != n or len(self.ewgt) != len(self.adjncy):
            raise ValueError("weight arrays do not match graph size")
        self.coords = coords if coords is None else np.asarray(coords, dtype=np.float64)

    @property
    def num_vertices(self) -> int:
        return len(self.xadj) - 1

    @property
    def num_edges(self) -> int:
        return len(self.adjncy) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.ewgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_weight(self) -> float:
        return float(self.vwgt.sum())

    def subgraph(self, vertices: np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph; returns (graph, original-ids of its vertices)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        n, k = self.num_vertices, len(vertices)
        if k and (vertices.min() < 0 or vertices.max() >= n):
            raise ValueError(f"subgraph: vertex ids must lie in [0, {n})")
        local = np.full(n, -1, dtype=np.int64)
        local[vertices] = np.arange(k)
        clash = np.flatnonzero(local[vertices] != np.arange(k))
        if len(clash):
            raise ValueError(f"subgraph: vertex id {int(vertices[clash[0]])} appears more than once")
        # CSR positions of the kept vertices' adjacency runs, in vertex order
        starts = self.xadj[vertices]
        degree = self.xadj[vertices + 1] - starts
        row = np.repeat(np.arange(k), degree)
        pos = np.repeat(starts - (np.cumsum(degree) - degree), degree) + np.arange(len(row))
        nbr = local[self.adjncy[pos]]
        inside = nbr >= 0
        xadj = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(row[inside], minlength=k), out=xadj[1:])
        coords = None if self.coords is None else self.coords[vertices]
        return (
            Graph(xadj, nbr[inside], self.vwgt[vertices], self.ewgt[pos[inside]], coords),
            vertices,
        )

    @classmethod
    def from_adjacency(
        cls,
        adj: Dict[int, List[int]],
        vwgt: Optional[np.ndarray] = None,
        coords: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Build from a dict of sorted adjacency lists keyed 0..n-1."""
        n = len(adj)
        xadj = [0]
        adjncy: List[int] = []
        for v in range(n):
            adjncy.extend(adj[v])
            xadj.append(len(adjncy))
        return cls(np.asarray(xadj), np.asarray(adjncy), vwgt=vwgt, coords=coords)


def mesh_dual_graph(mesh: TriMesh, weights: Optional[Dict[int, float]] = None) -> Tuple[Graph, List[int]]:
    """Dual graph of the alive mesh; returns (graph, tids in node order)."""
    from repro.mesh.dual import dual_graph

    tids, adj = dual_graph(mesh)
    # ``tids`` ascends and each ``adj[t]`` is sorted, so relabelled rows stay sorted
    index = {t: i for i, t in enumerate(tids)}
    xadj = np.zeros(len(tids) + 1, dtype=np.int64)
    np.cumsum([len(adj[t]) for t in tids], out=xadj[1:])
    adjncy = np.array([index[u] for t in tids for u in adj[t]], dtype=np.int64)
    verts = mesh.verts_array()
    if tids:
        coords = verts[np.array([mesh.tri_verts(t) for t in tids])].mean(axis=1)
    else:
        coords = np.zeros((0, verts.shape[1]))
    vwgt = None if weights is None else np.array([weights.get(t, 1.0) for t in tids], dtype=np.float64)
    return Graph(xadj, adjncy, vwgt=vwgt, coords=coords), tids
