"""The benchmark's three workloads, their cells and their oracles.

Every workload is a closed loop with one client: a *pass* is a fixed,
seed-determined list of cells, and the next cell starts when the previous
one returns.  ``RATIONALE.md`` says why each workload exists and which
layer it isolates.

* ``adapt-cold`` — one freshly generated scenario spec per cell, built
  with ``build_script`` and run with ``run_program``: the cold path a
  ``repro run`` or a ``-j N`` worker pays.
* ``sim-highp`` — adapt scripts pre-built in set-up plus jacobi and
  nbody, run at high P: the simulation path alone.
* ``sweep-served`` — small sweeps served by ``run_cells`` against a
  result store that set-up seeds with part of the cells.

A cell's *observed* outcome is its simulated elapsed time, a hash of its
per-rank checksums and its event/message/directory counts; the oracles
compare it with a recording, with the app's sequential reference, and
with its earlier observations in the same run.  A faulted cell whose
runtime exhausts the preset's retry budget raises ``FaultRecoveryError``,
the outcome the fault model specifies; its observed outcome is then that
error's message, which must repeat exactly like any other outcome.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
from repro.apps.jacobi import JACOBI_PROGRAMS, JacobiConfig
from repro.apps.jacobi import reference_checksum as jacobi_reference
from repro.apps.nbody import NBODY_PROGRAMS, NBodyConfig
from repro.apps.nbody import reference_checksum as nbody_reference
from repro.faults import FaultRecoveryError, resolve_profile
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.models.registry import MODEL_NAMES, run_program
from repro.serving import Cell, ResultStore, run_cells
from repro.workloads.synth import SCENARIO_CLASSES, generate_scenario, spec_config

# the model runtimes are imported lazily by ``make_contexts``; importing
# them here keeps imports out of the timed loop and out of pool workers
import repro.models.hybrid  # noqa: E402,F401
import repro.models.mpi.context  # noqa: E402,F401
import repro.models.sas.context  # noqa: E402,F401
import repro.models.shmem.context  # noqa: E402,F401

__all__ = ["WORKLOADS", "SIZES", "CellRun", "make_workload", "nproc"]

#: models every app has; hybrid exists only for adapt
BASE_MODELS = ("mpi", "shmem", "sas")
CLASSES = sorted(SCENARIO_CLASSES)
FAULT_PRESET = "bursty-links"
PLACEMENTS = ("first-touch", "round-robin")
#: per-cell deadline for pool-served cells
CELL_TIMEOUT_S = 120.0

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "cold_scenario": {"mesh_n": 7, "phases": 4, "solver_iters": 2},
        "cold_procs": (16, 32, 64),
        "cold_specs": 24,
        "highp_scenario": {"mesh_n": 7, "phases": 4, "solver_iters": 2},
        "highp_procs": (64, 128),
        "highp_jacobi": {"nx": 64, "ny": 64, "iters": 20},
        "highp_nbody": {"n": 64, "steps": 1},
        "sweep_procs": (1, 2, 4, 8, 16, 32),
        "sweep_adapt": {"mesh_n": 6, "phases": 3, "solver_iters": 2},
        "sweep_jacobi": {"nx": 32, "ny": 34, "iters": 5},
        "sweep_nbody": {"n": 64, "steps": 1},
    },
    "tiny": {
        "cold_scenario": {"mesh_n": 4, "phases": 2, "solver_iters": 1},
        "cold_procs": (2, 4, 8),
        "cold_specs": 12,
        "highp_scenario": {"mesh_n": 4, "phases": 2, "solver_iters": 1},
        "highp_procs": (4, 8),
        "highp_jacobi": {"nx": 16, "ny": 16, "iters": 2},
        "highp_nbody": {"n": 16, "steps": 1},
        "sweep_procs": (1, 2, 4, 8),
        "sweep_adapt": {"mesh_n": 4, "phases": 2, "solver_iters": 1},
        "sweep_jacobi": {"nx": 16, "ny": 16, "iters": 2},
        "sweep_nbody": {"n": 16, "steps": 1},
    },
}


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@dataclass
class CellRun:
    """One executed cell: host seconds, observed outcome, oracle verdict."""

    key: str
    model: str
    seconds: float
    observed: Optional[Dict[str, Any]]
    error: Optional[str] = None


def observe(elapsed_ns, rank_results, messages, dir_transactions, events=None) -> Dict[str, Any]:
    """The exact, comparable outcome of one simulated cell."""
    ranks = repr([float(r) for r in rank_results]).encode()
    return {
        "elapsed_ns": repr(float(elapsed_ns)),
        "ranks_sha256": hashlib.sha256(ranks).hexdigest(),
        "events": None if events is None else int(events),
        "messages": int(messages),
        "dir_transactions": int(dir_transactions),
    }


def reference_error(rank_results, reference: float) -> Optional[str]:
    """A message when a rank's checksum misses the sequential reference."""
    tol = 1e-9 * max(1.0, abs(reference))
    for r in rank_results:
        if not abs(float(r) - reference) <= tol:
            return f"checksum {float(r)!r} != sequential reference {reference!r}"
    return None


def simulate(model: str, program, nprocs: int, arg, faults=None) -> Tuple[Any, Dict[str, Any]]:
    """``run_program`` on a machine built here, so its engine can be read.

    The machine is the one ``run_program`` would build itself
    (``MachineConfig(nprocs=P)``, first-touch placement, the given fault
    preset), so the simulated results are the same.
    """
    machine = Machine(MachineConfig(nprocs=nprocs), faults=faults)
    result = run_program(model, program, nprocs, arg, machine=machine)
    observed = observe(
        result.elapsed_ns, result.rank_results,
        result.stats.network_messages, result.stats.directory_transactions,
        events=machine.engine.counters()["events"],
    )
    return result, observed


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class ProgramCell:
    """A ``run_program`` cell of ``adapt-cold`` or ``sim-highp``."""

    key: str
    model: str
    nprocs: int
    program: Any = None
    arg: Any = None          # script or config; None: build from ``spec``
    spec: Any = None
    reference: Optional[float] = None
    faults: Any = None


class Workload:
    """A seeded pass of cells plus the set-up that precedes the timed loop."""

    name = ""

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.size = SIZES[size]
        self.work_dir = work_dir
        self.cells: List[ProgramCell] = []

    def setup(self) -> Dict[str, float]:
        """Build the inputs; returns ``generate_s``/``prebuild_s``/``store_seed_s``."""
        raise NotImplementedError

    def run_pass(self) -> Tuple[List[CellRun], float]:
        """Run one pass; returns the cell runs and the timed seconds."""
        runs = [self.run_cell(cell) for cell in self.cells]
        return runs, sum(r.seconds for r in runs)

    def run_cell(self, cell: ProgramCell) -> CellRun:
        # every cell starts from a collected heap, so no cell pays for the
        # reference cycles an earlier one left behind (not timed, like the
        # store restore of sweep-served)
        gc.collect()
        t0 = perf_counter()
        try:
            observed, error = self._simulate(cell)
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted, not fatal
            observed, error = None, _error_text(exc)
        return CellRun(cell.key, cell.model, perf_counter() - t0, observed, error)

    @staticmethod
    def _simulate(cell: ProgramCell) -> Tuple[Dict[str, Any], Optional[str]]:
        script = cell.arg
        if script is None:
            script = build_script(spec_config(cell.spec), cell.nprocs)
        try:
            result, observed = simulate(
                cell.model, cell.program, cell.nprocs, script, faults=cell.faults
            )
        except FaultRecoveryError as exc:
            if cell.faults is None:
                raise
            return {"unrecovered": str(exc)}, None
        reference = cell.reference if cell.arg is not None else script.reference_checksum
        return observed, reference_error(result.rank_results, reference)

    def store_counts(self) -> Dict[str, int]:
        """Hit/miss/put counts of the store used by the last pass."""
        return {"hits": 0, "misses": 0, "puts": 0}


class AdaptCold(Workload):
    """Cold cells: scenario spec -> ``build_script`` -> ``run_program``."""

    name = "adapt-cold"

    def setup(self) -> Dict[str, float]:
        t0 = perf_counter()
        s = self.size
        procs = s["cold_procs"]
        self.cells = []
        for g in range(s["cold_specs"]):
            # class, P and model cycle together so every 12 consecutive
            # specs hold each class 3 times, each P 4 times and each model
            # 3 times; every pass runs every spec, so a run measures the
            # same cells however many passes the host fits
            cls, nprocs = CLASSES[g % 4], procs[g % 3]
            model = MODEL_NAMES[(g + g // 4) % 4]
            spec = generate_scenario(cls, seed=self.seed * 1009 + g, **s["cold_scenario"])
            self.cells.append(ProgramCell(
                key=f"{g:03d}-{cls}-{model}-P{nprocs}", model=model, nprocs=nprocs,
                program=ADAPT_PROGRAMS[model], spec=spec,
            ))
        return {"generate_s": perf_counter() - t0, "prebuild_s": 0.0, "store_seed_s": 0.0}


class SimHighP(Workload):
    """High-P simulation of pre-built inputs; a quarter of adapt faulted."""

    name = "sim-highp"

    def setup(self) -> Dict[str, float]:
        t0 = perf_counter()
        s = self.size
        procs = s["highp_procs"]
        # one script per scenario class, alternating P; the seed draws
        # the geometry and the fault schedule, never the cost structure
        specs = [
            generate_scenario(cls, seed=self.seed * 1009 + i, **s["highp_scenario"])
            for i, cls in enumerate(CLASSES)
        ]
        jacobi_cfg = JacobiConfig(**s["highp_jacobi"])
        nbody_cfg = NBodyConfig(seed=self.seed, **s["highp_nbody"])
        faults = resolve_profile(FAULT_PRESET, seed=self.seed + 1)
        t1 = perf_counter()
        scripts = [
            (build_script(spec_config(spec), procs[i % len(procs)]), procs[i % len(procs)])
            for i, spec in enumerate(specs)
        ]
        jacobi_ref = jacobi_reference(jacobi_cfg)
        nbody_ref = nbody_reference(nbody_cfg)
        t2 = perf_counter()
        self.cells = []
        for i, (script, p) in enumerate(scripts):
            for j, model in enumerate(MODEL_NAMES):
                # model j runs faulted on script j: a quarter of the adapt
                # cells, one per model
                faulted = j == i
                self.cells.append(ProgramCell(
                    key=f"adapt{i}-{model}-P{p}" + (f"-{FAULT_PRESET}" if faulted else ""),
                    model=model, nprocs=p, program=ADAPT_PROGRAMS[model],
                    arg=script, reference=script.reference_checksum,
                    faults=faults if faulted else None,
                ))
        for p in procs:
            for model in BASE_MODELS:
                self.cells.append(ProgramCell(
                    key=f"jacobi-{model}-P{p}", model=model, nprocs=p,
                    program=JACOBI_PROGRAMS[model], arg=jacobi_cfg, reference=jacobi_ref,
                ))
                self.cells.append(ProgramCell(
                    key=f"nbody-{model}-P{p}", model=model, nprocs=p,
                    program=NBODY_PROGRAMS[model], arg=nbody_cfg, reference=nbody_ref,
                ))
        return {"generate_s": t1 - t0, "prebuild_s": t2 - t1, "store_seed_s": 0.0}


class SweepServed(Workload):
    """Per-(app, model) sweeps over P, served by ``run_cells`` from a store."""

    name = "sweep-served"

    def __init__(self, seed: int, size: str, work_dir: str):
        super().__init__(seed, size, work_dir)
        self.jobs = nproc()
        self.seed_dir = os.path.join(work_dir, "seed-store")
        self.live_dir = os.path.join(work_dir, "store")
        self.store: Optional[ResultStore] = None

    def setup(self) -> Dict[str, float]:
        t0 = perf_counter()
        s = self.size
        configs = {
            "adapt": (AdaptConfig(**s["sweep_adapt"]), MODEL_NAMES),
            "nbody": (NBodyConfig(seed=self.seed, **s["sweep_nbody"]), BASE_MODELS),
            "jacobi": (JacobiConfig(**s["sweep_jacobi"]), BASE_MODELS),
        }
        # each (app, model, P) comes as two placement twins of nearly equal
        # cost, and the seed picks which twin set-up stores: every request
        # then reads half its cells and computes the other half, at a cost
        # that does not depend on the seed
        self.requests: List[Tuple[str, List[Cell]]] = [
            (model, [Cell(app, model, p, cfg, placement=pl)
                     for p in s["sweep_procs"] for pl in PLACEMENTS])
            for app, (cfg, models) in configs.items()
            for model in models
        ]
        rng = np.random.default_rng(self.seed)
        seeded = [
            cells[j + int(rng.integers(2))]
            for _, cells in self.requests
            for j in range(0, len(cells), 2)
        ]
        t1 = perf_counter()
        # the adapt reference comes from a direct build: no script cache
        # is filled in this process, so forked workers inherit none
        self.references = {
            "adapt": build_script(configs["adapt"][0], 1).reference_checksum,
            "nbody": nbody_reference(configs["nbody"][0]),
            "jacobi": jacobi_reference(configs["jacobi"][0]),
        }
        t2 = perf_counter()
        shutil.rmtree(self.seed_dir, ignore_errors=True)
        # seeding always simulates in pool workers, never in this process
        results = run_cells(
            seeded, store=ResultStore(self.seed_dir), jobs=max(2, self.jobs),
            timeout=CELL_TIMEOUT_S,
        )
        failed = [_label(r.cell) for r in results if r.summary is None]
        if failed:
            raise RuntimeError(f"store seeding failed for {failed}")
        self.seeded = {_label(r.cell): _observe_summary(r.summary) for r in results}
        t3 = perf_counter()
        return {"generate_s": t1 - t0, "prebuild_s": t2 - t1, "store_seed_s": t3 - t2}

    def restore(self) -> None:
        """Put the store back into the state set-up seeded (not timed)."""
        shutil.rmtree(self.live_dir, ignore_errors=True)
        shutil.copytree(self.seed_dir, self.live_dir)
        self.store = ResultStore(self.live_dir)

    def run_pass(self) -> Tuple[List[CellRun], float]:
        self.restore()
        runs: List[CellRun] = []
        timed = 0.0
        for model, cells in self.requests:
            t0 = perf_counter()
            results = run_cells(cells, store=self.store, jobs=self.jobs, timeout=CELL_TIMEOUT_S)
            dt = perf_counter() - t0
            timed += dt
            # run_cells returns a sweep as one batch: each cell is charged
            # an equal share of its request's wall time
            share = dt / len(cells)
            for r in results:
                key = _label(r.cell)
                if r.summary is None:
                    runs.append(CellRun(key, model, share, None, f"{r.source}: {r.error}"))
                    continue
                observed = _observe_summary(r.summary)
                error = reference_error(r.summary.rank_results, self.references[r.cell.app])
                if error is None and r.source == "store" and observed != self.seeded[key]:
                    error = "served summary differs from the computed one"
                runs.append(CellRun(key, model, share, observed, error))
        return runs, timed

    def store_counts(self) -> Dict[str, int]:
        st = self.store
        return {"hits": st.hits, "misses": st.misses, "puts": st.puts} if st else super().store_counts()


def _label(cell: Cell) -> str:
    return f"{cell.label()}/{cell.placement}"


def _observe_summary(summary) -> Dict[str, Any]:
    counters = summary.counters
    return observe(
        summary.elapsed_ns, summary.rank_results,
        counters.get("network_messages", 0), counters.get("directory_transactions", 0),
    )


WORKLOADS = {w.name: w for w in (AdaptCold, SimHighP, SweepServed)}


def make_workload(name: str, seed: int, size: str, work_dir: str) -> Workload:
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}") from None
    return cls(seed, size, work_dir)
