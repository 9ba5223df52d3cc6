"""Golden partitions: the multilevel partitioner replays its recording.

``tests/golden/partition.json`` (written by
``tools/record_partition_golden.py``) holds SHA-256 digests of what the
METIS-style partitioner in :mod:`repro.partition.multilevel` returns on a
fixed set of graphs.  The recording was taken from the per-vertex Python
loops that preceded the array-backed implementation; the array form keeps
every visit order, tie-break and float summation order, so every digest
here must match exactly (no tolerance).

Locked quantities:

* ``multilevel`` partition vectors (and their edge cut) on structured
  dual graphs with ``mesh_n`` 4-10, a Delaunay dual, a 3-D tet dual, a
  graph with float vertex and edge weights, and a disconnected graph
  with isolated vertices, for nparts in {2, 3, 5, 8, 16, 64} and two
  seeds;
* the stage functions on three graphs: ``heavy_edge_matching``'s match,
  every array of ``coarsen_graph``'s coarse graph plus its ``cmap`` at
  each level of the ladder down to the coarsest graph, and ``fm_refine``
  from a seeded random bisection;
* an ``adapt`` ``build_script`` fingerprint at P 16 and 64: element
  counts per rank per phase, migration pairs, the imbalance trace and
  the sequential reference checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.mesh import delaunay_mesh, structured_mesh, structured_tet_mesh
from repro.partition import Graph, edge_cut, mesh_dual_graph
from repro.partition.multilevel import coarsen_graph, fm_refine, heavy_edge_matching, multilevel

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "partition.json")

NPARTS = (2, 3, 5, 8, 16, 64)
SEEDS = (0, 1)
STAGE_GRAPHS = ("structured-10", "delaunay", "float-weights")
SCRIPT_PROCS = (16, 64)


# -- graphs --------------------------------------------------------------------


def _float_weighted() -> Graph:
    """A structured dual with random float vertex and (symmetric) edge weights."""
    base, _ = mesh_dual_graph(structured_mesh(16))
    rng = np.random.default_rng(11)
    vwgt = rng.uniform(0.5, 3.0, base.num_vertices)
    n = base.num_vertices
    src = np.repeat(np.arange(n), np.diff(base.xadj))
    # one weight per undirected edge, so both directions carry the same
    # value; spread over six decades, so the order of a sum shows in its
    # bits (drawn and scaled exactly, so every platform gets the same bits)
    _, edge = np.unique(
        np.minimum(src, base.adjncy) * n + np.maximum(src, base.adjncy), return_inverse=True
    )
    m = int(edge.max()) + 1
    ewgt = np.ldexp(rng.uniform(1.0, 2.0, m), rng.integers(-10, 10, m))[edge]
    return Graph(base.xadj, base.adjncy, vwgt, ewgt, base.coords)


def _disconnected() -> Graph:
    """Two disjoint mesh duals plus three isolated vertices."""
    a, _ = mesh_dual_graph(structured_mesh(5))
    b, _ = mesh_dual_graph(delaunay_mesh(40, seed=5))
    na, nb = a.num_vertices, b.num_vertices
    xadj = np.concatenate([a.xadj, b.xadj[1:] + a.xadj[-1], np.full(3, a.xadj[-1] + b.xadj[-1])])
    adjncy = np.concatenate([a.adjncy, b.adjncy + na])
    vwgt = np.concatenate([a.vwgt, b.vwgt, np.ones(3)])
    coords = np.vstack([a.coords, b.coords + 2.0, np.full((3, 2), 5.0)])
    assert len(xadj) == na + nb + 3 + 1
    return Graph(xadj, adjncy, vwgt, None, coords)


def graph_cases() -> Dict[str, Graph]:
    """Every graph the golden covers, by name."""
    cases: Dict[str, Graph] = {}
    for n in range(4, 11):
        cases[f"structured-{n}"], _ = mesh_dual_graph(structured_mesh(n))
    cases["delaunay"], _ = mesh_dual_graph(delaunay_mesh(500, seed=3))
    cases["tet"], _ = mesh_dual_graph(structured_tet_mesh(3))
    cases["float-weights"] = _float_weighted()
    cases["disconnected"] = _disconnected()
    return cases


# -- fingerprints --------------------------------------------------------------


def digest(arr: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def multilevel_row(name: str, graph: Graph, nparts: int, seed: int) -> Dict[str, Any]:
    part = multilevel(graph, nparts, seed=seed)
    return {
        "graph": name,
        "nparts": nparts,
        "seed": seed,
        "part": digest(part),
        "edge_cut": repr(float(edge_cut(graph, part))),
    }


def stage_row(name: str, graph: Graph) -> Dict[str, Any]:
    # the ladder down to the coarsest level: deeper coarse edges sum more
    # fine edges, so the digests also lock the order of the float sums
    levels = []
    current = graph
    while current.num_vertices > 48:
        match = heavy_edge_matching(current, seed=3 + len(levels))
        coarse, cmap = coarsen_graph(current, match)
        levels.append({
            key: digest(arr)
            for key, arr in (
                ("match", match), ("cmap", cmap), ("xadj", coarse.xadj),
                ("adjncy", coarse.adjncy), ("ewgt", coarse.ewgt), ("vwgt", coarse.vwgt),
                ("coords", coarse.coords),
            )
        })
        current = coarse
    rng = np.random.default_rng(17)
    start = rng.integers(0, 2, graph.num_vertices).astype(np.int64)
    total = graph.total_weight()
    refined = {}
    for frac in (0.5, 0.3):
        targets = (frac * total, (1 - frac) * total)
        refined[repr(frac)] = digest(fm_refine(graph, start.copy(), targets))
    return {"graph": name, "levels": levels, "fm_refine": refined}


def script_row(nprocs: int) -> Dict[str, Any]:
    from repro.apps.adapt import AdaptConfig, build_script

    script = build_script(AdaptConfig(), nprocs)
    return {
        "nprocs": nprocs,
        "elems_per_rank": [[int(x) for x in plan.elems_per_rank] for plan in script.phases],
        "migration_pairs": [
            [[int(p), int(q), int(len(ids))] for (p, q), ids in sorted(plan.migration_elems.items())]
            for plan in script.phases
        ],
        "imbalance_trace": [[repr(float(a)), repr(float(b))] for a, b in script.imbalance_trace],
        "reference_checksum": repr(float(script.reference_checksum)),
    }


def record() -> Dict[str, Any]:
    """Every row of the golden, computed on the current tree."""
    cases = graph_cases()
    rows: List[Dict[str, Any]] = [
        multilevel_row(name, graph, nparts, seed)
        for name, graph in cases.items()
        for nparts in NPARTS
        for seed in SEEDS
    ]
    stages = [stage_row(name, cases[name]) for name in STAGE_GRAPHS]
    scripts = [script_row(p) for p in SCRIPT_PROCS]
    return {"multilevel": rows, "stages": stages, "scripts": scripts}


# -- replay --------------------------------------------------------------------


def _golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


_GOLDEN = _golden() if os.path.exists(GOLDEN_PATH) else {"multilevel": [], "stages": [], "scripts": []}


@pytest.fixture(scope="module")
def cases() -> Dict[str, Graph]:
    return graph_cases()


@pytest.mark.parametrize("name", sorted({row["graph"] for row in _GOLDEN["multilevel"]}))
def test_multilevel_matches_recording(cases, name):
    rows = [row for row in _GOLDEN["multilevel"] if row["graph"] == name]
    assert len(rows) == len(NPARTS) * len(SEEDS)
    for row in rows:
        assert multilevel_row(name, cases[name], row["nparts"], row["seed"]) == row


@pytest.mark.parametrize("row", _GOLDEN["stages"], ids=lambda row: row["graph"])
def test_stages_match_recording(cases, row):
    assert stage_row(row["graph"], cases[row["graph"]]) == row


@pytest.mark.parametrize("row", _GOLDEN["scripts"], ids=lambda row: f"P{row['nprocs']}")
def test_build_script_matches_recording(row):
    assert script_row(row["nprocs"]) == row


def test_golden_covers_every_case():
    assert {row["graph"] for row in _GOLDEN["multilevel"]} == set(graph_cases())
    assert [row["graph"] for row in _GOLDEN["stages"]] == list(STAGE_GRAPHS)
    assert [row["nprocs"] for row in _GOLDEN["scripts"]] == list(SCRIPT_PROCS)
