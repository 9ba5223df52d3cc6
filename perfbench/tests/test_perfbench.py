"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run  # noqa: E402
from perfbench.layers import PER_LAYER_UNITS, LayerTracer  # noqa: E402
from perfbench.record_expected import record  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload, simulate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run_cli(workload: str, trace: int, cwd: str = ROOT, timeout: float = 180.0):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_benchmark_json_names_every_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER_UNITS
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    assert better.pop("cells_per_s") == "higher"
    assert set(better.values()) == {"lower"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_emits_every_metric(workload, trace):
    proc = _run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.END_TO_END_UNITS if trace == 0 else PER_LAYER_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        served = result["metrics"]["serving.gets"]["value"] > 0
        assert served == (workload == "sweep-served")
        assert (result["metrics"]["serving.puts"]["value"] > 0) == served


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_expectation_is_counted_as_failure(workload):
    expected = record("tiny", 5, [workload])[workload]
    clean = run.run_benchmark(workload, 5, 0.1, False, "tiny", expected=expected)
    assert clean["result"]["failed"] == 0
    assert clean["record"]["failed_frac"] == 0.0
    for field in ("elapsed_ns", "ranks_sha256", "messages"):
        corrupt = copy.deepcopy(expected)
        key = sorted(corrupt)[0]
        corrupt[key][field] = "0" if isinstance(corrupt[key][field], str) else corrupt[key][field] + 1
        out = run.run_benchmark(workload, 5, 0.1, False, "tiny", expected=corrupt)
        assert out["result"]["failed"] >= 1
        assert not out["result"]["correct"]
        assert out["record"]["failed_frac"] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_results_identical_to_untraced(workload, tmp_path):
    wl = make_workload(workload, 2, "tiny", str(tmp_path))
    wl.setup()
    untraced, _ = wl.run_pass()
    (tmp_path / "trace").mkdir()
    tracer = LayerTracer(str(tmp_path / "trace"))
    with tracer:
        traced, _ = wl.run_pass()
    tracer.merge_workers()
    assert [r.error for r in traced] == [None] * len(traced)
    assert [(r.key, r.observed) for r in traced] == [(r.key, r.observed) for r in untraced]
    assert tracer.counts["sim.events"] > 0
    # the wrappers are gone again
    from repro.machine.machine import Machine

    assert not hasattr(Machine.run, "__wrapped__")


def test_traced_inline_sweep(tmp_path):
    # one job: run_cells computes the misses in this process, inside the
    # traced run_tasks span, and the parent's spans must survive them
    wl = make_workload("sweep-served", 2, "tiny", str(tmp_path))
    wl.jobs = 1
    wl.setup()
    untraced, _ = wl.run_pass()
    (tmp_path / "trace").mkdir()
    tracer = LayerTracer(str(tmp_path / "trace"))
    with tracer:
        traced, _ = wl.run_pass()
    assert os.listdir(tmp_path / "trace") == []
    assert [r.error for r in traced] == [None] * len(traced)
    assert [(r.key, r.observed) for r in traced] == [(r.key, r.observed) for r in untraced]
    assert tracer.calls["serving"] > 0 and tracer.fn_s["worker"] > 0
    assert tracer.counts["sim.events"] > 0


def test_unrecovered_fault_cell_is_an_outcome():
    from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
    from repro.faults import resolve_profile
    from perfbench.workloads import ProgramCell, Workload

    script = build_script(AdaptConfig(mesh_n=4, phases=2, solver_iters=1), 8)
    faults = resolve_profile("bursty-links", seed=1).with_(max_retries=1, drop_rate=0.9)
    cell = ProgramCell(key="k", model="mpi", nprocs=8, program=ADAPT_PROGRAMS["mpi"],
                       arg=script, reference=script.reference_checksum, faults=faults)
    first = Workload._simulate(cell)
    assert first[1] is None and first[0]["unrecovered"].startswith("mpi: ")
    assert Workload._simulate(cell) == first


def test_machine_path_matches_run_app():
    from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
    from repro.harness import run_app

    cfg = AdaptConfig(mesh_n=4, phases=2, solver_iters=1)
    script = build_script(cfg, 8)
    for model in ("mpi", "sas"):
        for faults in (None, "bursty-links"):
            result, _ = simulate(model, ADAPT_PROGRAMS[model], 8, script, faults=faults)
            ref = run_app("adapt", model, 8, cfg, faults=faults)
            assert result.elapsed_ns == ref.elapsed_ns
            assert result.rank_results == ref.rank_results
            assert result.stats.summary() == ref.stats.summary()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    proc = _run_cli("adapt-cold", 0, cwd=str(tmp_path), timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
