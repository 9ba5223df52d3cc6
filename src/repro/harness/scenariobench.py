"""The ranking-flip sweep: the paper's question over a scenario space.

``run_scenario_bench`` generates one scenario per (class, intensity)
cell, runs every programming model at every processor count on each —
all through the content-hash-keyed experiment cache — and then asks the
paper's question systematically: *how do the models rank, and where
does the ranking change?*  For every axis of the sweep (``nprocs``,
``intensity``, ``scenario_class``) it records each adjacent pair of
settings whose model ranking differs — the *ranking flips* — and flags
the subset where the best model itself changes.  On this machine model
SHMEM usually holds first place (the paper's fine-grain verdict), so
most flips live in the MPI ↔ CC-SAS order, which crosses over with
processor count and scenario intensity.  The record is written as
``BENCH_SCENARIOS.json`` by ``python -m repro bench-scenarios``.

Times are simulated nanoseconds, so the sweep is deterministic: the same
seed and knobs always produce the same rankings and the same flip
report.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "BENCH_SCENARIOS_FILENAME",
    "DEFAULT_CLASSES",
    "find_flips",
    "run_scenario_bench",
    "format_scenario_bench",
    "write_scenario_bench_json",
]

BENCH_SCENARIOS_FILENAME = "BENCH_SCENARIOS.json"

DEFAULT_CLASSES = (
    "multi_front",
    "refinement_storm",
    "imbalance_wave",
    "hotspot_drift",
)

Cell = Tuple[str, float, int]  # (scenario_class, intensity, nprocs)


def _variant(intensity: float) -> str:
    return f"i{intensity:g}"


def _cell_key(cls: str, intensity: float, nprocs: int) -> str:
    return f"{cls}/{_variant(intensity)}/P{nprocs}"


def find_flips(
    ranks: Dict[Tuple, List[str]], axes: Sequence[Tuple[str, Sequence[Any]]]
) -> List[Dict[str, Any]]:
    """Adjacent-setting ranking changes along every sweep axis.

    ``ranks`` maps a cell — one setting per axis, in ``axes`` order — to
    its model ranking; ``axes`` lists ``(axis name, settings)``.  Axes are
    walked last to first.  Along each, the other axes' settings run in
    ``axes`` order (the first one slowest), and every flip's ``fixed``
    dict names them in that order.
    """
    flips: List[Dict[str, Any]] = []
    for k in reversed(range(len(axes))):
        axis, values = axes[k]
        others = axes[:k] + axes[k + 1:]
        for fixed in itertools.product(*(settings for _, settings in others)):
            for a, b in zip(values, values[1:]):
                r1 = ranks[fixed[:k] + (a,) + fixed[k:]]
                r2 = ranks[fixed[:k] + (b,) + fixed[k:]]
                if r1 != r2:
                    flips.append({
                        "axis": axis,
                        "fixed": {name: v for (name, _), v in zip(others, fixed)},
                        "from_setting": a,
                        "to_setting": b,
                        "from_ranking": list(r1),
                        "to_ranking": list(r2),
                        "best_changed": r1[0] != r2[0],
                    })
    return flips


def run_scenario_bench(
    classes: Sequence[str] = DEFAULT_CLASSES,
    models: Sequence[str] = ("mpi", "shmem", "sas"),
    nprocs_list: Iterable[int] = (2, 8, 32),
    intensities: Sequence[float] = (0.2, 1.0),
    seed: int = 7,
    mesh_n: int = 8,
    phases: int = 4,
    solver_iters: int = 6,
    placement: str = "first-touch",
    include_insights: bool = True,
    store: Any = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Sweep model × P × (class, intensity) and report the ranking flips.

    Args:
        classes: scenario classes (see
            :data:`repro.workloads.synth.SCENARIO_CLASSES`).
        models: programming models to rank.
        nprocs_list: processor counts (one sweep axis).
        intensities: ``intensity`` knob settings per class (the second
            sweep axis).
        seed: generator seed shared by every spec of the sweep.
        mesh_n / phases / solver_iters: base workload shape of every
            generated scenario.
        placement: page-placement policy of every run.
        include_insights: attach each spec's trajectory characterisation.
        store: a :class:`repro.serving.ResultStore` — sweep cells whose
            full run signature is already on disk are served from it
            (times are simulated, so served rows are bit-identical to
            computed ones and the record bytes do not change between a
            cold and a warm pass).
        jobs: shard uncached cells over this many worker processes.

    Returns:
        The JSON-ready BENCH_SCENARIOS record: per-cell rows and model
        rankings, one spec entry (name, hash, knobs) per scenario, the
        flip list (each with from/to rankings and a ``best_changed``
        flag), ``best_flips`` (the subset where first place changes),
        and ``axes_with_flips`` / ``axes_with_best_flips`` — the knob
        axes along which the ranking (resp. the best model) changes.
    """
    from repro.serving import Cell as ServeCell
    from repro.serving import run_cells
    from repro.workloads.synth import characterise, generate_scenario

    nprocs_list = list(nprocs_list)
    classes = list(classes)
    intensities = list(intensities)
    specs: Dict[str, Any] = {}
    rows: List[Dict[str, Any]] = []
    ranking: Dict[str, List[str]] = {}
    ranks: Dict[Cell, List[str]] = {}
    spec_by_cell: Dict[Tuple[str, float], Any] = {}
    for cls in classes:
        for inten in intensities:
            spec = generate_scenario(
                cls,
                seed=seed,
                name=f"{cls}-{_variant(inten)}-s{seed}",
                mesh_n=mesh_n,
                phases=phases,
                solver_iters=solver_iters,
                intensity=inten,
            )
            spec_by_cell[(cls, inten)] = spec
            entry: Dict[str, Any] = {
                "name": spec.name,
                "content_hash": spec.content_hash(),
                "knobs": spec.knob_dict,
            }
            if include_insights:
                ins = characterise(spec, max(nprocs_list))
                entry["insights"] = {
                    k: ins[k]
                    for k in (
                        "final_elements",
                        "comm_volume_bytes",
                        "adaptation_rate",
                        "migration_fraction",
                        "peak_imbalance",
                    )
                }
            specs[f"{cls}/{_variant(inten)}"] = entry
    # one serving batch over the whole sweep, in deterministic cell order:
    # hits come from the store, misses shard across the process pool
    serve_cells = [
        ServeCell("scenario", model, n, spec_by_cell[(cls, inten)], placement)
        for cls in classes
        for inten in intensities
        for n in nprocs_list
        for model in models
    ]
    served = run_cells(serve_cells, store=store, jobs=jobs)
    failed = [r for r in served if r.summary is None]
    if failed:
        raise RuntimeError(
            f"scenario sweep: {len(failed)} cell(s) failed, first: "
            f"{failed[0].cell.label()}: {failed[0].error}"
        )
    summaries = iter(served)
    for cls in classes:
        for inten in intensities:
            for n in nprocs_list:
                times: Dict[str, int] = {}
                for model in models:
                    res = next(summaries).summary
                    times[model] = res.elapsed_ns
                    rows.append({
                        "scenario_class": cls,
                        "intensity": inten,
                        "variant": _variant(inten),
                        "model": model,
                        "nprocs": n,
                        "elapsed_ns": res.elapsed_ns,
                        "elapsed_ms": res.elapsed_ns / 1e6,
                    })
                ordered = sorted(models, key=lambda m: times[m])
                ranking[_cell_key(cls, inten, n)] = ordered
                ranks[(cls, inten, n)] = ordered
    flips = find_flips(
        ranks,
        [("scenario_class", classes), ("intensity", intensities), ("nprocs", nprocs_list)],
    )
    best_flips = [f for f in flips if f["best_changed"]]
    return {
        "benchmark": "scenario-sweep",
        "seed": seed,
        "classes": classes,
        "models": list(models),
        "nprocs_list": nprocs_list,
        "intensities": intensities,
        "workload": {"mesh_n": mesh_n, "phases": phases, "solver_iters": solver_iters},
        "placement": placement,
        "cells": len(classes) * len(intensities) * len(nprocs_list),
        "specs": specs,
        "rows": rows,
        "ranking": ranking,
        "best": {_cell_key(*cell): r[0] for cell, r in ranks.items()},
        "flips": flips,
        "best_flips": best_flips,
        "axes_with_flips": sorted({f["axis"] for f in flips}),
        "axes_with_best_flips": sorted({f["axis"] for f in best_flips}),
    }


def format_scenario_bench(record: Dict[str, Any]) -> str:
    """Human-readable sweep table plus the flip report."""
    lines = [
        f"scenario sweep: {record['cells']} cells "
        f"({len(record['classes'])} classes x {len(record['intensities'])} "
        f"intensities x {len(record['nprocs_list'])} P), seed {record['seed']}",
        f"{'scenario':>18} {'intensity':>9} {'P':>4} "
        + " ".join(f"{m + ' ms':>12}" for m in record["models"])
        + "   best",
    ]
    by_cell: Dict[Tuple[str, float, int], Dict[str, float]] = {}
    for r in record["rows"]:
        by_cell.setdefault(
            (r["scenario_class"], r["intensity"], r["nprocs"]), {}
        )[r["model"]] = r["elapsed_ms"]
    for (cls, inten, n), times in by_cell.items():
        bestm = record["best"][_cell_key(cls, inten, n)]
        lines.append(
            f"{cls:>18} {inten:>9g} {n:>4} "
            + " ".join(f"{times[m]:>12.3f}" for m in record["models"])
            + f"   {bestm}"
        )
    if record["flips"]:
        lines.append(f"ranking flips ({len(record['flips'])}) along "
                     f"axes: {', '.join(record['axes_with_flips'])}")
        for f in record["flips"]:
            fixed = ", ".join(f"{k}={v}" for k, v in f["fixed"].items())
            mark = "  BEST CHANGES" if f["best_changed"] else ""
            lines.append(
                f"  [{f['axis']}] {fixed}: {'>'.join(f['from_ranking'])} -> "
                f"{'>'.join(f['to_ranking'])} between {f['axis']}="
                f"{f['from_setting']} and {f['axis']}={f['to_setting']}{mark}"
            )
        if record["best_flips"]:
            lines.append(
                f"best-model flips ({len(record['best_flips'])}) along "
                f"axes: {', '.join(record['axes_with_best_flips'])}"
            )
        else:
            champion = next(iter(record["best"].values()))
            lines.append(
                f"best model never changes in this sweep ({champion} holds "
                "first place); flips are in the runner-up order"
            )
    else:
        lines.append("ranking flips: none — the model ranking is stable "
                     "across this sweep")
    return "\n".join(lines)


def write_scenario_bench_json(record: Dict[str, Any], path: Optional[str] = None) -> str:
    """Write the record to ``BENCH_SCENARIOS.json``; returns the path."""
    path = path or BENCH_SCENARIOS_FILENAME
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
