#!/usr/bin/env python
"""Record the partition golden digests replayed by the test suite.

Runs the multilevel partitioner, its stage functions and ``adapt``'s
``build_script`` on the cases defined in ``tests/test_partition_golden.py``
and writes their digests to ``tests/golden/partition.json``.  The cases
and the fingerprint functions live in that test module, so the recorder
and the suite cannot drift apart.

Re-run only when an intentional change to the partitions lands (and say
so in the commit, with the edge cut and balance before and after):

    PYTHONPATH=src python tools/record_partition_golden.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from tests.test_partition_golden import GOLDEN_PATH, record  # noqa: E402


def main() -> int:
    golden = record()
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"wrote {os.path.relpath(GOLDEN_PATH)} ({len(golden['multilevel'])} partitions, "
        f"{len(golden['stages'])} stage rows, {len(golden['scripts'])} scripts)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
