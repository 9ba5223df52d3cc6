"""Record the expected outcome of every benchmark cell for one seed.

For each workload the recording holds, per cell, the simulated elapsed
nanoseconds, a sha256 of the per-rank checksums, the engine's event count
(``None`` for cells simulated inside serving pool workers), the network
message count and the directory transaction count; a faulted cell that
exhausts its retry budget records the ``FaultRecoveryError`` message
instead.  ``run.py`` counts a
cell as failed when its outcome differs from the recording; on a seed
with no recording only the sequential-reference and run-to-run checks
apply.

Re-run only when an intentional simulated-time change lands, and say so
in the commit::

    python3 perfbench/record_expected.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import run  # noqa: E402


def record(size: str, seed: int, workloads=None) -> Dict[str, Any]:
    """Outcomes of every cell of ``workloads`` (default all) for ``seed``."""
    run.import_program()
    from perfbench.workloads import WORKLOADS, make_workload

    out: Dict[str, Any] = {}
    work_dir = os.path.join(HERE, ".work", f"record-{os.getpid()}")
    try:
        for name in workloads or WORKLOADS:
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            wl = make_workload(name, seed, size, work_dir)
            wl.setup()
            runs, _ = wl.run_pass()
            for r in runs:
                if r.error is not None:
                    raise RuntimeError(f"{name} {r.key}: {r.error}")
            out[name] = {r.key: r.observed for r in runs}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    recorded = record(args.size, args.seed)
    path = os.path.join(HERE, "expected", f"{args.size}-s{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"size": args.size, "seed": args.seed, "workloads": recorded},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    cells = sum(len(v) for v in recorded.values())
    print(f"wrote {os.path.relpath(path)} ({cells} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
