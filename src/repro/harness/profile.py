"""Host-time profiling: the layer sampler and the SAS memory-pipeline microbench.

Two concerns live here:

* :class:`LayerSampler`, the stack sampler behind ``run --profile``.  A
  ``SIGPROF`` timer asks for a signal every :data:`SAMPLE_INTERVAL_S` of
  process CPU time; each signal charges one sample, and the CPU time
  since the previous one, to the layer of the innermost frame that runs
  ``repro`` code (:data:`LAYERS`).  Nothing in the simulator knows it is
  being sampled, so a sampled run takes exactly the code path of an
  unsampled one.  A sampler cannot count calls, so the report gives
  samples, shares and estimated seconds only.
* :func:`run_sas_microbench`, the line-touch microbenchmark that measures
  the *host-time* throughput of the CC-SAS cache/directory pipeline with
  the batched fast path on vs. off, checks the two runs are bit-identical
  in simulated nanoseconds, and emits ``BENCH_SAS.json`` via
  :func:`write_bench_json`.

The simulated results never depend on profiling or on the batch switch —
only how many host seconds they take to produce.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import time
from typing import Any, Dict, Generator, Optional

import numpy as np

import repro
from repro.machine.config import MachineConfig
from repro.models.registry import run_program

__all__ = [
    "LAYERS",
    "LayerSampler",
    "SAMPLE_INTERVAL_S",
    "frame_layer",
    "layer_of",
    "run_sas_microbench",
    "write_bench_json",
]

#: Sampling interval of :class:`LayerSampler`, in seconds of process CPU time.
SAMPLE_INTERVAL_S = 0.001

#: Ordered ``(path prefix under repro/, layer)`` table; the first match wins,
#: and a ``repro`` file no prefix matches belongs to ``harness``.
LAYERS = (
    ("sim/", "engine"),
    ("machine/network", "network"),
    ("machine/directory", "directory"),
    ("machine/cache", "cache"),
    ("models/mpi/matchq", "mpi-match"),
    ("models/", "runtime"),
    ("apps/", "app"),
    ("mesh/", "mesh"),
    ("partition/", "partition"),
    ("plum/", "plum"),
    ("solver/", "solver"),
    ("faults/", "faults"),
    ("obs/", "obs"),
    ("machine/", "machine"),
)

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(relpath: str) -> str:
    """Layer of a file, given its path relative to the ``repro`` package."""
    for prefix, layer in LAYERS:
        if relpath.startswith(prefix):
            return layer
    return "harness"


@functools.lru_cache(maxsize=4096)
def _file_layer(filename: str) -> Optional[str]:
    """Layer of a code object's file, or ``None`` outside the package."""
    path = os.path.abspath(filename)
    return layer_of(path[len(_PACKAGE_DIR):]) if path.startswith(_PACKAGE_DIR) else None


def frame_layer(frame) -> str:
    """Layer of the innermost ``repro`` frame on ``frame``'s stack, else ``other``."""
    while frame is not None:
        layer = _file_layer(frame.f_code.co_filename)
        if layer is not None:
            return layer
        frame = frame.f_back
    return "other"


class LayerSampler:
    """``SIGPROF`` stack sampler counting host CPU time per layer.

    ``counts`` holds samples per layer.  ``seconds`` charges each sample
    the process CPU time since the previous one: the kernel delivers
    ``SIGPROF`` at most once per scheduler tick (often 4 ms, not the
    requested 1 ms), and Python runs the handler only after a long C call
    returns, so a sample can stand for more than one interval.  The
    frame the handler sees then is the Python caller of that C call,
    which is where its time belongs.

    Use as a context manager around the code to measure; on exit (also
    by an exception) the previous ``SIGPROF`` handler and interval timer
    come back.  Needs ``signal.setitimer`` and the main thread; the
    constructor raises ``RuntimeError`` on a platform without it.
    """

    def __init__(self) -> None:
        if not hasattr(signal, "setitimer") or not hasattr(signal, "SIGPROF"):
            raise RuntimeError(
                "host-time sampling needs signal.setitimer and SIGPROF, "
                "which this platform does not provide"
            )
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self._last = 0.0
        self._saved = None

    def _on_sample(self, signum, frame) -> None:
        now = time.process_time()
        layer = frame_layer(frame)
        self.counts[layer] = self.counts.get(layer, 0) + 1
        self.seconds[layer] = self.seconds.get(layer, 0.0) + (now - self._last)
        self._last = now

    def __enter__(self) -> "LayerSampler":
        self._last = time.process_time()
        handler = signal.signal(signal.SIGPROF, self._on_sample)
        timer = signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._saved = (handler, timer)
        return self

    def __exit__(self, *exc) -> None:
        handler, timer = self._saved
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, handler)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def report(self, title: str = "host-time profile") -> str:
        """Samples, share and estimated CPU seconds per layer, busiest first."""
        total_s = sum(self.seconds.values())
        lines = [
            f"{title}: SIGPROF samples, each charged the CPU time since the last",
            f"  {'layer':<12} {'samples':>8} {'%':>6} {'est. s':>8}",
        ]
        for layer, secs in sorted(self.seconds.items(), key=lambda kv: (-kv[1], kv[0])):
            share = 100 * secs / total_s if total_s else 0.0
            lines.append(f"  {layer:<12} {self.counts[layer]:>8} {share:>5.1f}% {secs:>8.3f}")
        lines.append(f"  {'total':<12} {self.total:>8} {'':>6} {total_s:>8.3f}")
        return "\n".join(lines)


BENCH_FILENAME = "BENCH_SAS.json"


def _microbench_program(ctx, elements: int, sweeps: int) -> Generator:
    """Per-rank SAS workload: strided sweeps + scattered gathers.

    Mirrors the access mix of the adaptive apps: a first-touch write sweep
    over this rank's block, re-read sweeps (warm hits), a read of the
    *next* rank's block (remote/coherence traffic), and an indexed gather
    with duplicate consecutive indices (the irregular pattern
    ``stouch_idx`` dedupes).
    """
    data = ctx.shalloc("bench", (elements * ctx.nprocs,), np.float64)
    lo = ctx.rank * elements
    hi = lo + elements
    yield from ctx.stouch(data, lo, hi, write=True)  # first touch: place + fill
    for _ in range(sweeps):
        yield from ctx.stouch(data, lo, hi, write=False)  # warm hits
    yield from ctx.barrier()
    nxt = ((ctx.rank + 1) % ctx.nprocs) * elements
    yield from ctx.stouch(data, nxt, nxt + elements, write=False)  # remote
    idx = (np.arange(elements, dtype=np.int64) * 7) % elements + lo
    yield from ctx.stouch_idx(data, idx, write=False)  # scattered gather
    yield from ctx.barrier()
    return float(ctx.now)


def _one_run(nprocs: int, elements: int, sweeps: int, batch: str):
    cfg = MachineConfig(nprocs=nprocs, derived={"sas_batch": batch})
    t0 = time.perf_counter()
    result = run_program("sas", _microbench_program, nprocs, elements, sweeps, config=cfg)
    host_s = time.perf_counter() - t0
    lines = result.stats.total("lines_touched")
    return result, host_s, lines


def run_sas_microbench(
    nprocs: int = 4,
    elements: int = 40_000,
    sweeps: int = 3,
    compare: bool = True,
    store: Any = None,
) -> Dict[str, Any]:
    """Benchmark the SAS memory pipeline; returns the BENCH_SAS record.

    With ``compare=True`` the workload runs twice — batched fast path on,
    then off — and the two simulated timelines are asserted identical
    before any speedup is reported, so the number can never come from a
    model change masquerading as an optimisation.  Default sizing touches
    well over 10^5 cache lines.

    ``store`` does not serve this bench (it *is* a host-time
    measurement); it keeps a fingerprint golden instead.  The first run
    under a given signature stores the simulated nanoseconds, line
    count and full statistics summary; every later run with the same
    signature is asserted identical — a cross-process, cross-day drift
    detector.  The record gains ``store_verified`` when the comparison
    happened.
    """
    result_on, host_on, lines_on = _one_run(nprocs, elements, sweeps, "on")
    record: Dict[str, Any] = {
        "benchmark": "sas-line-touch",
        "workload": {
            "model": "sas",
            "nprocs": nprocs,
            "elements_per_rank": elements,
            "sweeps": sweeps,
        },
        "simulated_ns": result_on.elapsed_ns,
        "lines_touched": int(lines_on),
        "batch": {
            "host_seconds": host_on,
            "lines_per_sec": lines_on / host_on if host_on > 0 else 0.0,
        },
        "batch_enabled": True,
    }
    if compare:
        result_off, host_off, lines_off = _one_run(nprocs, elements, sweeps, "off")
        if result_off.elapsed_ns != result_on.elapsed_ns:
            raise AssertionError(
                "batched fast path diverged from the scalar pipeline: "
                f"{result_on.elapsed_ns} ns (on) vs {result_off.elapsed_ns} ns (off)"
            )
        if result_off.stats.summary() != result_on.stats.summary():
            raise AssertionError("batched fast path changed machine statistics")
        record["scalar"] = {
            "host_seconds": host_off,
            "lines_per_sec": lines_off / host_off if host_off > 0 else 0.0,
        }
        record["speedup"] = host_off / host_on if host_on > 0 else float("inf")
        record["identical_simulated_ns"] = True
    if store is not None:
        record["store_verified"] = _store_fingerprint(
            store, nprocs, elements, sweeps, result_on, int(lines_on)
        )
    return record


def _store_fingerprint(
    store: Any, nprocs: int, elements: int, sweeps: int, result, lines: int
) -> bool:
    """Golden-check this run against the store's fingerprint entry.

    Returns ``True`` when a previous fingerprint existed and matched
    (``AssertionError`` when it existed and did not), ``False`` when this
    run seeded the fingerprint.
    """
    import repro
    from repro.serving import cache_key
    from repro.serving.store import STORE_SCHEMA

    sig = {
        "schema": STORE_SCHEMA,
        "engine": repro.__version__,
        "bench": "sas-line-touch",
        "nprocs": nprocs,
        "elements": elements,
        "sweeps": sweeps,
    }
    fingerprint = {
        "simulated_ns": result.elapsed_ns,
        "lines_touched": lines,
        "stats": {k: float(v) for k, v in result.stats.summary().items()},
    }
    key = cache_key(sig)
    stored = store.get(key)
    if stored is None:
        store.put(key, sig, fingerprint, identity=f"sas-line-touch/P{nprocs}")
        return False
    if stored != json.loads(json.dumps(fingerprint)):
        raise AssertionError(
            "sas microbench drifted from its stored fingerprint: "
            f"stored {stored} vs current {fingerprint}"
        )
    return True


def write_bench_json(record: Dict[str, Any], path: Optional[str] = None) -> str:
    """Write the benchmark record to ``BENCH_SAS.json``; returns the path."""
    path = path or BENCH_FILENAME
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
