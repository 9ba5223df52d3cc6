"""Differential golden suite: faults off is bit-identical to the pre-PR build.

``tests/golden/faults_off.json`` (written by
``tools/record_faults_golden.py``) fingerprints every faults-off run —
all four models at P in {1, 8, 64} — as recorded *before* the
correlated-fault plane (Gilbert–Elliott burst chains, failure domains,
fault-aware PLUM, collective re-subscribe) landed.  Each test here
re-runs one configuration on the current tree and compares every field
exactly: elapsed nanoseconds (by ``repr``, so float-exact), a SHA-256 of
the per-rank results, the full statistics summary, and the traced event
stream's length and SHA-256.

One intentional delta is baked into the recordings: hybrid's
``global_barrier`` now emits a world-scoped ``barrier`` obs event per
rank (this PR's observability satellite), so the hybrid *event* rows
were re-recorded after that change.  The re-recording was differential
too — elapsed, rank results and stats of every row, and the event
streams of mpi/shmem/sas, were verified byte-equal to the pre-PR build
before committing the file.  Obs events never advance simulated time,
so a timing regression still cannot hide behind the event-row refresh.

``tests/golden/faults_on.json`` (written by the same recorder with
``--faults-on``) does the same for runs *with* faults: all four models
at P in {8, 64} under the ``stress`` (i.i.d. drop, duplicate and delay)
and ``bursty-links`` (Gilbert–Elliott bursts) presets.  Those rows also
lock the engine's ``events`` (seq) count and the fault-plane counters,
and a run that gives up records its ``FaultRecoveryError`` message as
the row's outcome.

P=64 rows carry the ``nightly`` marker so the tier-1 run stays fast.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.apps.adapt import AdaptConfig
from repro.harness.experiment import run_app

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "faults_off.json")
FAULTS_ON_PATH = os.path.join(os.path.dirname(__file__), "golden", "faults_on.json")

with open(GOLDEN_PATH) as _fh:
    _GOLDEN = json.load(_fh)

_ROWS = {(row["model"], row["nprocs"]): row for row in _GOLDEN["rows"]}

# the CLI "small" preset the recordings were taken with
_WL = AdaptConfig(mesh_n=8, phases=3, solver_iters=6)

#: the faults-on grid: models x P x fault presets
FAULTS_ON_MODELS = ("mpi", "shmem", "sas", "hybrid")
FAULTS_ON_PROCS = (8, 64)
FAULTS_ON_PRESETS = ("stress", "bursty-links")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def faults_on_fingerprint(model: str, nprocs: int, preset: str) -> dict:
    """One traced faults-on run, reduced to exact comparable fields.

    The machine is built here (as ``run_app`` would build it) so the
    engine's seq count can be read; a run that exhausts its retries
    records the ``FaultRecoveryError`` message as its outcome.
    """
    from repro.apps.adapt import ADAPT_PROGRAMS, build_script
    from repro.faults import FaultRecoveryError
    from repro.machine.config import MachineConfig
    from repro.machine.machine import Machine
    from repro.models.registry import run_program

    script = build_script(_WL, nprocs, faults=preset)
    machine = Machine(MachineConfig(nprocs=nprocs), faults=preset)
    row = {"model": model, "nprocs": nprocs, "preset": preset}
    try:
        result = run_program(
            model, ADAPT_PROGRAMS[model], nprocs, script,
            machine=machine, trace=True,
        )
    except FaultRecoveryError as exc:
        result = None
        row["outcome"] = f"FaultRecoveryError: {exc}"
    row["engine_events"] = machine.engine.counters()["events"]
    row["fault_counters"] = {
        k: repr(v) for k, v in sorted(machine.faults.counters.items())
    }
    if result is None:
        return row
    events = result.events or []
    row.update(
        outcome="ok",
        elapsed_ns=repr(result.elapsed_ns),
        rank_results_sha256=_sha(repr(result.rank_results).encode()),
        stats_summary={
            k: repr(v) for k, v in sorted(result.stats.summary().items())
        },
        events=len(events),
        events_sha256=_sha("\n".join(repr(ev) for ev in events).encode()),
    )
    return row


def _param(model: str, nprocs: int):
    marks = [pytest.mark.nightly] if nprocs > 8 else []
    return pytest.param(model, nprocs, marks=marks, id=f"{model}-{nprocs}")


CASES = [
    _param(model, nprocs)
    for model in _GOLDEN["models"]
    for nprocs in _GOLDEN["procs"]
]


@pytest.mark.parametrize("model,nprocs", CASES)
def test_faults_off_matches_pre_pr_recording(model, nprocs):
    """A faults-off run reproduces its golden fingerprint field by field."""
    golden = _ROWS[(model, nprocs)]
    result = run_app("adapt", model, nprocs, _WL, trace=True)
    assert repr(result.elapsed_ns) == golden["elapsed_ns"]
    assert (
        hashlib.sha256(repr(result.rank_results).encode()).hexdigest()
        == golden["rank_results_sha256"]
    )
    summary = {k: repr(v) for k, v in sorted(result.stats.summary().items())}
    assert summary == golden["stats_summary"]
    events = result.events or []
    assert len(events) == golden["events"]
    blob = "\n".join(repr(ev) for ev in events).encode()
    assert hashlib.sha256(blob).hexdigest() == golden["events_sha256"]


def test_golden_file_covers_all_models():
    """The recording spans every model x P cell the suite claims to lock."""
    assert set(_GOLDEN["models"]) == {"mpi", "shmem", "sas", "hybrid"}
    assert set(_GOLDEN["procs"]) == {1, 8, 64}
    assert len(_ROWS) == 12


def _faults_on_rows() -> dict:
    if not os.path.exists(FAULTS_ON_PATH):
        return {}
    with open(FAULTS_ON_PATH) as fh:
        golden = json.load(fh)
    return {(r["model"], r["nprocs"], r["preset"]): r for r in golden["rows"]}


_ON_ROWS = _faults_on_rows()


def _on_param(model: str, nprocs: int, preset: str):
    marks = [pytest.mark.nightly] if nprocs > 8 else []
    return pytest.param(
        model, nprocs, preset, marks=marks, id=f"{model}-{nprocs}-{preset}"
    )


@pytest.mark.parametrize(
    "model,nprocs,preset",
    [
        _on_param(model, nprocs, preset)
        for model in FAULTS_ON_MODELS
        for nprocs in FAULTS_ON_PROCS
        for preset in FAULTS_ON_PRESETS
    ],
)
def test_faults_on_matches_recording(model, nprocs, preset):
    """A faults-on run reproduces its recorded fingerprint, seq count included."""
    golden = _ON_ROWS[(model, nprocs, preset)]
    assert faults_on_fingerprint(model, nprocs, preset) == golden


def test_faults_on_file_covers_grid():
    """The faults-on recording spans every model x P x preset cell."""
    assert set(_ON_ROWS) == {
        (m, p, f)
        for m in FAULTS_ON_MODELS
        for p in FAULTS_ON_PROCS
        for f in FAULTS_ON_PRESETS
    }
