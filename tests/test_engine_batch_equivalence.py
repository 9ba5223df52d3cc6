"""Golden engine timelines: every model replays its recorded fingerprint.

The event engine drains same-timestamp cohorts through a zero lane and
an array-backed delay lane, completes uncontended network transfers on
``call_after`` timers, fuses MPI eager sends and blocking receives into
``Hop`` legs, and answers MPI matches from a head check or a
``(src, tag)`` index.  Those paths once had scalar twins (a one-event-
at-a-time heap loop, spawned transfer coroutines, a list-scan matcher)
that this suite re-ran live as the reference.  ``tests/golden/engine.json``
replaces them: ``tools/record_engine_golden.py`` recorded it while the
twins still existed, after asserting that both arms produced identical
fingerprints for every row.

Locked quantities, all exact (no tolerance):

* simulated elapsed nanoseconds (by ``repr``, so float-exact),
* the complete ``repro.obs`` event stream (count and SHA-256),
* the aggregate statistics summary and a SHA-256 of the per-CPU stats
  (the float-sum order inside each rank matters),
* a SHA-256 of the per-rank program results.

The workloads are small per-model programs that touch every fast path:
MPI halo exchange over the adapt ghost pattern plus a reversed-order
unexpected-queue flood, SHMEM put/iput/get/quiet with a reduction, CC-SAS
writes, barriers and reads, and hybrid node barriers plus MPI eager
traffic.  P=128 rows carry the ``nightly`` marker.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Generator, List, Tuple

import pytest

from repro.machine import Machine, MachineConfig
from repro.models.mpi.matchq import ANY, MatchQueue
from repro.models.registry import run_program
from tests.test_invariants_highp import ListMatchQueue

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "engine.json")

MODELS = ("mpi", "shmem", "sas", "hybrid")
PROCS = (1, 8, 64, 128)

_HALO_TAG = 5
_FLOOD_TAG = 100


# -- workloads -----------------------------------------------------------------


def halo_pairs(nprocs: int) -> List[Tuple[int, int, int]]:
    """The adapt application's ghost-exchange pattern at this P.

    The union of the per-phase ghost sends of a small deterministic adapt
    trajectory, as ``(src, dst, nbytes)`` triples.
    """
    from repro.apps.adapt import AdaptConfig, build_script

    script = build_script(AdaptConfig(mesh_n=8, phases=3, solver_iters=2), nprocs)
    merged: Dict[Tuple[int, int], int] = {}
    for plan in script.phases:
        for (p, q), ids in plan.ghost_sends.items():
            key = (int(p), int(q))
            merged[key] = max(merged.get(key, 0), max(int(len(ids)) * 8, 8))
    return [(p, q, nb) for (p, q), nb in sorted(merged.items())]


def mpi_program(ctx, pairs, flood: int) -> Generator:
    """Halo exchange over ``pairs``, then an unexpected-queue flood.

    Each rank floods its node partner with ``flood`` small eager messages
    and drains them in reverse tag order, so every receive probes deep
    into the unexpected queue.
    """
    me = ctx.rank
    reqs = []
    for (p, q, nb) in pairs:
        if q == me:
            r = yield from ctx.irecv(p, tag=_HALO_TAG)
            reqs.append(r)
    for (p, q, nb) in pairs:
        if p == me:
            r = yield from ctx.isend(None, q, tag=_HALO_TAG, nbytes=nb)
            reqs.append(r)
    if reqs:
        yield from ctx.waitall(reqs)
    partner = me ^ 1
    if partner < ctx.nprocs:
        sreqs = []
        for f in range(flood):
            r = yield from ctx.isend(None, partner, tag=_FLOOD_TAG + f, nbytes=64)
            sreqs.append(r)
        for f in reversed(range(flood)):
            yield from ctx.recv(partner, tag=_FLOOD_TAG + f)
        yield from ctx.waitall(sreqs)
    yield from ctx.barrier()
    return float(ctx.now)


def shmem_program(ctx, nelems: int) -> Generator:
    import numpy as np

    sym = ctx.salloc("eq", nelems * ctx.nprocs)
    data = np.full(nelems, float(ctx.rank))
    right = (ctx.rank + 1) % ctx.nprocs
    left = (ctx.rank - 1) % ctx.nprocs
    for _ in range(2):
        yield from ctx.put(sym, right, data, offset=ctx.rank * nelems)
        yield from ctx.iput(sym, left, data[: nelems // 2], 2, offset=ctx.rank * nelems)
        yield from ctx.quiet()
        got = yield from ctx.get(sym, left, offset=left * nelems, count=nelems)
        yield from ctx.barrier_all()
        v = yield from ctx.sum_to_all(float(got[0]))
        yield from ctx.compute(100.0)
    return v


def sas_program(ctx, nelems: int) -> Generator:
    arr = ctx.shalloc("eq", nelems * ctx.nprocs)
    lo = ctx.rank * nelems
    for _ in range(2):
        yield from ctx.swrite(arr, [float(ctx.rank)] * nelems, lo=lo)
        yield from ctx.barrier()
        peer = (ctx.rank + 1) % ctx.nprocs
        vals = yield from ctx.sread(arr, lo=peer * nelems, hi=peer * nelems + nelems)
        v = yield from ctx.reduce_all(float(vals[0]))
        yield from ctx.compute(100.0)
    return v


def hybrid_program(ctx, flood: int) -> Generator:
    # exercises both halves: node-scoped SAS barriers + MPI eager traffic
    yield from ctx.node_barrier()
    partner = ctx.rank ^ 1
    if partner < ctx.nprocs:
        reqs = []
        for f in range(flood):
            r = yield from ctx.mpi.isend(None, partner, tag=300 + f, nbytes=64)
            reqs.append(r)
        for f in reversed(range(flood)):
            yield from ctx.mpi.recv(partner, tag=300 + f)
        yield from ctx.mpi.waitall(reqs)
    yield from ctx.node_barrier()
    v = yield from ctx.allreduce(float(ctx.rank))
    return v


def workload(model: str, nprocs: int):
    """``(program, args)`` for one golden row; P-dependent args built once."""
    if model == "mpi":
        return mpi_program, (halo_pairs(nprocs), 8)
    if model == "shmem":
        return shmem_program, (32,)
    if model == "sas":
        return sas_program, (32,)
    if model == "hybrid":
        return hybrid_program, (8,)
    raise ValueError(f"unknown model {model!r}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(model: str, nprocs: int, machine: Machine = None) -> dict:
    """One traced run of the row's workload, reduced to exact fields."""
    program, args = workload(model, nprocs)
    if machine is None:
        machine = Machine(MachineConfig(nprocs=nprocs))
    result = run_program(model, program, nprocs, *args, machine=machine, trace=True)
    events = result.events or []
    return {
        "model": model,
        "nprocs": nprocs,
        "elapsed_ns": repr(result.elapsed_ns),
        "rank_results_sha256": _sha(repr(result.rank_results)),
        "stats_summary": {k: repr(v) for k, v in sorted(result.stats.summary().items())},
        "per_cpu_sha256": _sha(repr(result.stats.per_cpu)),
        "events": len(events),
        "events_sha256": _sha("\n".join(repr(ev) for ev in events)),
    }


# -- the golden suite ------------------------------------------------------------


def _golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _param(model: str, nprocs: int):
    marks = [pytest.mark.nightly] if nprocs > 64 else []
    return pytest.param(model, nprocs, marks=marks, id=f"{model}-{nprocs}")


class TestGoldenTimelines:
    @pytest.mark.parametrize(
        "model,nprocs", [_param(m, p) for m in MODELS for p in PROCS]
    )
    def test_trace_and_stats_identical(self, model, nprocs):
        """A run reproduces the recorded fingerprint field by field."""
        rows = {(r["model"], r["nprocs"]): r for r in _golden()["rows"]}
        assert fingerprint(model, nprocs) == rows[(model, nprocs)]

    def test_golden_file_covers_all_rows(self):
        golden = _golden()
        assert golden["models"] == list(MODELS)
        assert golden["procs"] == list(PROCS)
        assert len(golden["rows"]) == len(MODELS) * len(PROCS)

    def test_batched_arm_exercises_fast_paths(self):
        """The MPI row drives the timer transfers, zero lane and match index."""
        machine = Machine(MachineConfig(nprocs=8))
        fingerprint("mpi", 8, machine=machine)
        assert machine.network.timer_fast_transfers > 0
        counters = machine.engine.counters()
        assert counters["zero_lane_hits"] > 0
        assert counters["timer_calls"] > 0
        assert machine.mpi_world.match_counters()["index_hits"] > 0


class TestMatchIndex:
    def _q(self):
        return MatchQueue()

    def test_concrete_probe_uses_index(self):
        q = self._q()
        for i in range(8):
            q.append(("m", i), src=i % 2, tag=100 + i)
        # out-of-order concrete probe: not the head, no wildcards live
        assert q.pop_first(1, 105) == ("m", 5)
        assert q.index_hits == 1
        assert len(q) == 7

    def test_index_skips_stale_positions(self):
        q = self._q()
        q.append("a", src=0, tag=7)
        q.append("b", src=0, tag=7)
        # first pop via the head route leaves the index bucket stale
        assert q.pop_first(0, 7) == "a"
        assert q.head_hits == 1
        # dead-prefix trim makes "b" the head; bucket still holds position 0
        assert q.pop_first(0, 7) == "b"
        assert len(q) == 0

    def test_empty_bucket_proves_no_match(self):
        q = self._q()
        q.append("a", src=0, tag=1)
        q.append("b", src=0, tag=2)
        assert q.pop_first(3, 9) is None
        assert len(q) == 2

    def test_wildcard_entries_disable_index_route(self):
        q = self._q()
        q.append("w", src=ANY, tag=5)
        q.append("c", src=2, tag=5)
        # a live wildcard entry could out-rank the bucket's first position,
        # so the index must not answer: FIFO first-match is the wildcard
        assert q.pop_first(2, 5) == "w"
        assert q.index_hits == 0

    def test_storage_recycles_and_index_clears(self):
        q = self._q()
        for i in range(4):
            q.append(i, src=i, tag=i)
        for i in range(4):
            assert q.pop_first(i, i) == i
        assert q.pop_first(0, 0) is None  # triggers the recycle
        assert len(q._items) == 0
        assert q._index == {}
        q.append("new", src=0, tag=0)
        assert q.pop_first(0, 0) == "new"

    def test_match_order_equivalence_random(self):
        """Head, index and scan routes return exactly the list-scan match."""
        import random

        rng = random.Random(1234)
        fast, slow = self._q(), ListMatchQueue()
        live = 0
        for step in range(4000):
            if live and rng.random() < 0.45:
                if rng.random() < 0.8:
                    probe = (rng.randrange(4), rng.randrange(6))
                else:
                    probe = (rng.choice([ANY, rng.randrange(4)]),
                             rng.choice([ANY, rng.randrange(6)]))
                a = fast.pop_first(*probe)
                b = slow.pop_first(*probe)
                assert a == b
                if a is not None:
                    live -= 1
            else:
                src, tag = rng.randrange(4), rng.randrange(6)
                if rng.random() < 0.1:
                    src = ANY
                item = (step, src, tag)
                fast.append(item, src=src, tag=tag)
                slow.append(item, src=src, tag=tag)
                live += 1
        assert len(fast) == len(slow) == live
