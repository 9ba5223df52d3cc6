"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adapt-cold --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 32

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
of the same cells and prints the per-layer metrics, with the tracing
overhead.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Every
invocation appends one record to ``perfbench/results/records.jsonl``.
``--workload all`` runs every workload in fresh processes and prints one
table.  See ``perfbench/RATIONALE.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up repetitions per run; ``setup_s`` reports their median
SETUP_REPS = 3
#: untraced runs per workload with ``--workload all``
ALL_REPS = 3
MODELS = ("mpi", "shmem", "sas", "hybrid")
END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "model_s.mpi": "s",
    "model_s.shmem": "s",
    "model_s.sas": "s",
    "model_s.hybrid": "s",
    "peak_rss_mb": "MB",
}
RESULTS_DIR = os.path.join(HERE, "results")


def import_program() -> None:
    """Import the program; the time this takes is ``setup.import_s``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no program sources at {SRC}/repro")
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import perfbench.workloads  # noqa: F401  (imports every repro module used)


# -- statistics -------------------------------------------------------------


def percentile(values: List[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (``0 <= p <= 100``)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` samples beyond it."""
    return max(50, (100 * (n - 10)) // n) if n > 10 else 50


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- oracle -----------------------------------------------------------------


def load_expected(size: str, seed: int, workload: str) -> Optional[Dict[str, Any]]:
    """The recorded outcomes for ``(size, seed, workload)``, if recorded."""
    path = os.path.join(HERE, "expected", f"{size}-s{seed}.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        return json.load(fh)["workloads"].get(workload)


class Oracle:
    """Counts a cell as failed on error, a recording mismatch or a change.

    ``expected`` maps cell keys to recorded outcomes (``None`` on a
    held-out seed, where the sequential reference and run-to-run identity
    are the only checks).  Every later run of a cell must observe what
    its first run did, traced or not.
    """

    def __init__(self, expected: Optional[Dict[str, Any]]):
        self.expected = expected
        self.first: Dict[str, Any] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, runs) -> None:
        for run in runs:
            self.attempted += 1
            error = run.error
            if error is None:
                want = (self.expected or {}).get(run.key)
                seen = self.first.setdefault(run.key, run.observed)
                if want is not None and want != run.observed:
                    error = f"differs from recording: {_diff(want, run.observed)}"
                elif seen != run.observed:
                    error = f"differs from its first run: {_diff(seen, run.observed)}"
            if error is not None:
                self.failures.append(f"{run.key}: {error}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def _diff(want: Dict[str, Any], got: Dict[str, Any]) -> str:
    keys = [k for k in want if want.get(k) != got.get(k)]
    return ", ".join(f"{k} {want.get(k)!r} -> {got.get(k)!r}" for k in keys)


# -- the run ----------------------------------------------------------------


def setup_workload(name: str, seed: int, size: str, work_dir: str):
    """Set the workload up SETUP_REPS times; keep the last."""
    from perfbench.workloads import make_workload

    reps = []
    for _ in range(SETUP_REPS):
        wl = make_workload(name, seed, size, work_dir)
        reps.append(wl.setup())
    return wl, reps


def _more(elapsed: float, last: float, seconds: float) -> bool:
    """Start another pass if it should end by ``seconds`` plus half a pass."""
    return elapsed + 0.5 * last <= seconds


def timed_loop(wl, seconds: float, oracle: Oracle) -> List[Dict[str, Any]]:
    """Whole passes until ``seconds`` of timed work; one dict per pass."""
    passes = []
    elapsed = 0.0
    while True:
        runs, timed = wl.run_pass()
        oracle.check(runs)
        passes.append({"runs": runs, "timed_s": timed})
        elapsed += timed
        if not _more(elapsed, timed, seconds):
            return passes


def end_to_end(passes, setup_s: float) -> Dict[str, Any]:
    """End-to-end metrics of an untraced run, plus per-pass detail.

    A cell that ran in several passes is represented by its median time,
    so the percentiles describe the cells, not the host's slow spells.
    """
    times: Dict[str, List[float]] = {}
    model_of: Dict[str, str] = {}
    for p in passes:
        for r in p["runs"]:
            times.setdefault(r.key, []).append(r.seconds)
            model_of[r.key] = r.model
    cell_s = {key: statistics.median(ts) for key, ts in times.items()}
    tail_p = tail_percentile(len(cell_s))
    per_pass = []
    for p in passes:
        row = {"cells": len(p["runs"]), "timed_s": p["timed_s"],
               "cells_per_s": len(p["runs"]) / p["timed_s"]}
        for m in MODELS:
            row[f"model_s.{m}"] = sum(r.seconds for r in p["runs"] if r.model == m)
        per_pass.append(row)
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": setup_s,
        "cells_per_s": sum(r["cells"] for r in per_pass) / sum(r["timed_s"] for r in per_pass),
        "cell_p50_s": percentile(list(cell_s.values()), 50.0),
        "cell_tail_s": percentile(list(cell_s.values()), tail_p),
    }
    for m in MODELS:
        # every pass runs every cell: one pass's worth of this model's cells
        values[f"model_s.{m}"] = sum(t for key, t in cell_s.items() if model_of[key] == m)
    # Linux reports ru_maxrss in KiB: this process plus its largest worker
    values["peak_rss_mb"] = (usage_self + usage_children) / 1024.0
    return {
        "values": values,
        "per_pass": per_pass,
        "tail_percentile": tail_p,
        "cells": len(cell_s),
        "cells_beyond_tail": sum(1 for t in cell_s.values() if t >= values["cell_tail_s"]),
    }


def traced_loop(wl, seconds: float, oracle: Oracle, work_dir: str) -> Dict[str, Any]:
    """Alternate untraced and traced passes; per-layer metrics."""
    from perfbench.layers import COUNT_METRICS, LayerTracer, layer_metrics

    worker_dir = os.path.join(work_dir, "trace")
    os.makedirs(worker_dir, exist_ok=True)
    tracer = LayerTracer(worker_dir)
    untraced, traced, layers = [], [], []
    elapsed = 0.0
    while True:
        runs, t_off = wl.run_pass()
        oracle.check(runs)
        tracer.reset()
        with tracer:
            runs, t_on = wl.run_pass()
        tracer.merge_workers()
        oracle.check(runs)
        untraced.append(t_off)
        traced.append(t_on)
        layers.append(layer_metrics(tracer.snapshot(), wl.store_counts()))
        elapsed += t_off + t_on
        if not _more(elapsed, t_off + t_on, seconds):
            break
    values = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
    unstable = [k for k in COUNT_METRICS if k in values and len({row[k] for row in layers}) > 1]
    for k in COUNT_METRICS:
        if k in values:
            values[k] = layers[0][k]
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.overhead_frac"] = values["trace.wall_s"] / values["trace.untraced_wall_s"] - 1.0
    return {"values": values, "unstable_counts": unstable, "per_pass": layers}


def run_benchmark(
    workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One benchmark run in this process; returns the result and record.

    ``expected`` overrides the recording in ``perfbench/expected``.
    """
    import_program()
    import_s = time.perf_counter() - _T0
    work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        wl, setup_reps = setup_workload(workload, seed, size, work_dir)
        setup_s = import_s + statistics.median(sum(r.values()) for r in setup_reps)
        if expected is None:
            expected = load_expected(size, seed, workload)
        oracle = Oracle(expected)
        if trace:
            detail = traced_loop(wl, seconds, oracle, work_dir)
            metrics = dict(detail["values"])
            metrics["setup.import_s"] = import_s
            for key in ("generate_s", "prebuild_s", "store_seed_s"):
                metrics[f"setup.{key}"] = statistics.median(r[key] for r in setup_reps)
            if detail["unstable_counts"]:
                oracle.failures.append(f"counts changed between passes: {detail['unstable_counts']}")
        else:
            detail = end_to_end(timed_loop(wl, seconds, oracle), setup_s)
            metrics = detail["values"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    from perfbench.layers import PER_LAYER_UNITS

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    record = {
        **environment(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "recorded_oracle": expected is not None,
        "setup_reps": setup_reps, "failures": oracle.failures[:20],
        "unrecovered": sorted(k for k, o in oracle.first.items() if o and "unrecovered" in o),
        "failed_frac": oracle.failed / oracle.attempted,
        "result": result,
        "repetitions": detail["per_pass"],
        "quartiles": {k: quartiles([row[k] for row in detail["per_pass"]])
                      for k in detail["per_pass"][0]},
    }
    if trace:
        record["trace_overhead_frac"] = metrics["trace.overhead_frac"]
    else:
        for key in ("tail_percentile", "cells", "cells_beyond_tail"):
            record[key] = detail[key]
    return {"result": result, "record": record}


# -- environment and records --------------------------------------------------


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` (no subprocess), or ``unknown``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, Any]:
    from perfbench.workloads import nproc

    return {
        "commit": _git_commit(),
        "host": platform.node(),
        "cpu": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
    }


def append_record(record: Dict[str, Any]) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "records.jsonl"), "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def print_human(record: Dict[str, Any]) -> None:
    res = record["result"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']} "
          f"size {record['size']}: {res['attempted']} cells, {res['failed']} failed "
          f"(failed_frac {record['failed_frac']:.4f}), "
          f"oracle {'recording+reference' if record['recorded_oracle'] else 'reference'}")
    if "tail_percentile" in record:
        print(f"cell_tail_s is p{record['tail_percentile']} of {record['cells']} distinct "
              f"cells ({record['cells_beyond_tail']} at or beyond it)")
    for key in record["unrecovered"]:
        print(f"  {key}: FaultRecoveryError, as recorded or repeated")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


# -- all workloads --------------------------------------------------------------


def run_all(seed: int, seconds: float, size: str) -> int:
    """Each workload in fresh processes: ALL_REPS untraced runs and one traced."""
    from perfbench.workloads import WORKLOADS

    summary: Dict[str, Any] = {}
    status = 0
    for name in WORKLOADS:
        rows = []
        for trace in [0] * ALL_REPS + [1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--size", size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
                return proc.returncode or 1
            rows.append((trace, json.loads(lines[-1])))
        untraced = [r for t, r in rows if t == 0]
        traced = rows[-1][1]
        summary[name] = {
            "failed": sum(r["failed"] for _, r in rows),
            "attempted": sum(r["attempted"] for _, r in rows),
            "metrics": {
                k: {"unit": u, **quartiles([r["metrics"][k]["value"] for r in untraced])}
                for k, u in END_TO_END_UNITS.items()
            },
            "trace_overhead_frac": traced["metrics"]["trace.overhead_frac"]["value"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        if summary[name]["failed"]:
            status = 1
    print(f"{'metric':16s} {'unit':5s} " + " ".join(f"{w:>28s}" for w in summary))
    for k, u in END_TO_END_UNITS.items():
        cells = [f"{s['metrics'][k]['median']:10.4g} [{s['metrics'][k]['q1']:.3g}, "
                 f"{s['metrics'][k]['q3']:.3g}]" for s in summary.values()]
        print(f"{k:16s} {u:5s} " + " ".join(f"{c:>28s}" for c in cells))
    frac = [f"{s['failed'] / s['attempted']:.4f}" for s in summary.values()]
    print(f"{'failed_frac':16s} {'ratio':5s} " + " ".join(f"{c:>28s}" for c in frac))
    over = [f"{s['trace_overhead_frac']:+.3f}" for s in summary.values()]
    print(f"{'trace overhead':16s} {'ratio':5s} " + " ".join(f"{c:>28s}" for c in over))
    append_record({**environment(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                   "workload": "all", "seed": seed, "seconds": seconds, "size": size,
                   "reps": ALL_REPS, "workloads": summary})
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="adapt-cold, sim-highp, sweep-served, or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the self-tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        import_program()
        return run_all(args.seed, args.seconds, args.size)
    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    append_record(out["record"])
    print_human(out["record"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
