#!/usr/bin/env python
"""Record the engine golden fingerprints replayed by the test suite.

Runs each per-model workload (mpi, shmem, sas, hybrid) at P in
{1, 8, 64, 128} with tracing on and writes its fingerprint — elapsed
nanoseconds, obs-trace digest, statistics summary, per-CPU stats digest
and rank-results digest — to ``tests/golden/engine.json``.  The
workloads and the fingerprint function live in the test module that
replays the file (``tests/test_engine_batch_equivalence.py``), so the
recorder and the suite cannot drift apart.

Re-run only when an intentional simulated-time change lands (and say so
in the commit):

    PYTHONPATH=src python tools/record_engine_golden.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from tests.test_engine_batch_equivalence import (  # noqa: E402
    GOLDEN_PATH,
    MODELS,
    PROCS,
    fingerprint,
)


def main() -> int:
    rows = []
    for model in MODELS:
        for nprocs in PROCS:
            row = fingerprint(model, nprocs)
            rows.append(row)
            print(
                f"recorded {model:>6} P={nprocs:<3} "
                f"elapsed={row['elapsed_ns']} events={row['events']}"
            )
    record = {"models": list(MODELS), "procs": list(PROCS), "rows": rows}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(GOLDEN_PATH)} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
