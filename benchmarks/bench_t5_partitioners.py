"""R-T5: partitioner quality — edge-cut, imbalance, wall time — for RCB,
recursive spectral bisection, and the multilevel KL/FM partitioner, on the
dual graphs of adapted meshes.  ``results/t5_partitioners.txt`` keeps the
deterministic columns; the host wall time is printed with the run.

Expected shape: RCB is fastest with the worst cut; multilevel gets the
best (or near-best) cut at moderate cost; spectral is slow and its cut
sits between — the classic late-90s trade-off that made multilevel the
default inside PLUM.
"""

import time

import pytest

from conftest import emit
from repro.harness import format_table
from repro.mesh import structured_mesh
from repro.mesh.adapt import adapt_phase
from repro.mesh.error import distance_band_marks
from repro.partition import PARTITIONERS, mesh_dual_graph, partition_summary


def _adapted_graph(size: int, phases: int):
    mesh = structured_mesh(size)
    for k in range(phases):
        xf = 0.2 + 0.2 * k
        adapt_phase(
            mesh,
            lambda m, f=xf: distance_band_marks(m, lambda x, y: x - f, 0.05, max_level=2),
        )
    return mesh_dual_graph(mesh)[0]


@pytest.fixture(scope="module")
def t5_results():
    graph = _adapted_graph(14, 3)
    results = {}
    rows = []
    for nparts in (4, 8, 16):
        for name in sorted(PARTITIONERS):
            fn = PARTITIONERS[name]
            t0 = time.perf_counter()
            part = fn(graph, nparts)
            wall_ms = (time.perf_counter() - t0) * 1e3
            s = partition_summary(graph, part, nparts)
            results[(name, nparts)] = (s, wall_ms)
            rows.append([nparts, name, s.edge_cut, s.imbalance, wall_ms])
    title = (
        f"R-T5: partitioner quality on an adapted dual graph "
        f"({graph.num_vertices} elements)"
    )
    # the tracked results file holds only the deterministic columns; host
    # wall time differs run to run, so it is printed, never written there
    emit(
        "t5_partitioners",
        format_table(
            ["P", "partitioner", "edge_cut", "imbalance"],
            [row[:4] for row in rows], title=title,
        ),
    )
    print(format_table(
        ["P", "partitioner", "edge_cut", "imbalance", "wall_ms"],
        rows, title=f"{title} — host wall time on this machine",
    ))
    return results


def test_t5_shape(t5_results):
    for nparts in (4, 8, 16):
        rcb_s, rcb_t = t5_results[("rcb", nparts)]
        ml_s, ml_t = t5_results[("multilevel", nparts)]
        sp_s, sp_t = t5_results[("spectral", nparts)]
        # geometric bisection is the fastest of the three
        assert rcb_t < ml_t and rcb_t < sp_t
        # multilevel's cut is competitive: never worse than 1.2x the best
        best = min(rcb_s.edge_cut, ml_s.edge_cut, sp_s.edge_cut)
        assert ml_s.edge_cut <= 1.2 * best
        # all keep balance
        for s in (rcb_s, ml_s, sp_s):
            assert s.imbalance < 1.3


def test_t5_benchmark(benchmark):
    graph = _adapted_graph(10, 2)
    benchmark(lambda: PARTITIONERS["multilevel"](graph, 8))
