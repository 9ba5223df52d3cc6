#!/usr/bin/env python
"""Record the faults-off golden fingerprints for the differential suite.

``tests/test_faults_off_golden.py`` asserts that every faults-off run —
all four models at P in {1, 8, 64} — still produces *bit-identical*
elapsed nanoseconds, per-rank results, aggregate statistics and obs
traces to the recordings this script wrote before the correlated-fault
plane landed.  That is the house rule ("faults off is bit-identical to a
build without the faults module") made executable.

With ``--faults-on`` it writes ``tests/golden/faults_on.json`` instead:
the same fields plus the engine's ``events`` (seq) count and the
fault-plane counters, for all four models at P in {8, 64} under the
``stress`` and ``bursty-links`` presets.  The fingerprint function and
the grid live in the test module that replays the file, so the two
cannot drift apart.

Re-run only when an intentional simulated-time change lands (and say so
in the commit):

    PYTHONPATH=src python tools/record_faults_golden.py [--faults-on]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "tests", "golden", "faults_off.json"
)

MODELS = ("mpi", "shmem", "sas", "hybrid")
PROCS = (1, 8, 64)


def workload():
    from repro.apps.adapt import AdaptConfig

    # the CLI "small" preset — big enough to touch every comm path,
    # small enough that the differential suite stays tier-1 at P<=8
    return AdaptConfig(mesh_n=8, phases=3, solver_iters=6)


def fingerprint(model: str, nprocs: int) -> dict:
    """One faults-off traced run, reduced to exact comparable fields."""
    from repro.harness.experiment import run_app

    result = run_app("adapt", model, nprocs, workload(), trace=True)
    events = result.events or []
    events_blob = "\n".join(repr(ev) for ev in events).encode()
    return {
        "model": model,
        "nprocs": nprocs,
        # repr round-trips floats exactly; the test compares strings
        "elapsed_ns": repr(result.elapsed_ns),
        "rank_results_sha256": hashlib.sha256(
            repr(result.rank_results).encode()
        ).hexdigest(),
        "stats_summary": {
            k: repr(v) for k, v in sorted(result.stats.summary().items())
        },
        "events": len(events),
        "events_sha256": hashlib.sha256(events_blob).hexdigest(),
    }


def _write(path: str, record: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)} ({len(record['rows'])} rows)")


def record_faults_on() -> int:
    from tests.test_faults_off_golden import (
        FAULTS_ON_MODELS,
        FAULTS_ON_PATH,
        FAULTS_ON_PRESETS,
        FAULTS_ON_PROCS,
        faults_on_fingerprint,
    )

    rows = []
    for model in FAULTS_ON_MODELS:
        for nprocs in FAULTS_ON_PROCS:
            for preset in FAULTS_ON_PRESETS:
                row = faults_on_fingerprint(model, nprocs, preset)
                rows.append(row)
                print(
                    f"recorded {model:>6} P={nprocs:<3} {preset:<12} "
                    f"{row['outcome'][:40]} seq={row['engine_events']}"
                )
    _write(FAULTS_ON_PATH, {
        "app": "adapt",
        "workload": "small (mesh_n=8, phases=3, solver_iters=6)",
        "models": list(FAULTS_ON_MODELS),
        "procs": list(FAULTS_ON_PROCS),
        "presets": list(FAULTS_ON_PRESETS),
        "rows": rows,
    })
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--faults-on"]:
        return record_faults_on()
    if argv:
        print("usage: record_faults_golden.py [--faults-on]", file=sys.stderr)
        return 2
    rows = []
    for model in MODELS:
        for nprocs in PROCS:
            row = fingerprint(model, nprocs)
            rows.append(row)
            print(
                f"recorded {model:>6} P={nprocs:<3} "
                f"elapsed={row['elapsed_ns']} events={row['events']}"
            )
    record = {
        "app": "adapt",
        "workload": "small (mesh_n=8, phases=3, solver_iters=6)",
        "models": list(MODELS),
        "procs": list(PROCS),
        "rows": rows,
    }
    _write(GOLDEN_PATH, record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
