"""The cross-hardware sweep: the paper's question on different machines.

``run_profile_bench`` re-runs the paper's model × P comparison under each
named hardware profile (:mod:`repro.machine.profiles`) on one fixed
scenario workload — the same ``multi_front`` spec the scenario sweep uses
— and asks: *does the MPI vs SHMEM vs CC-SAS ranking survive a change of
machine?*  The Origin2000 rankings reproduce ``BENCH_SCENARIOS.json``
exactly (same workload, same machine, same cache keys modulo the profile
field); the other profiles answer a question the paper could not ask.
For every axis (``nprocs`` within a profile, ``machine_profile`` at fixed
P) the record lists each adjacent pair of settings whose ranking differs
— the established R-F flip-report shape.  The record is written as
``BENCH_PROFILES.json`` by ``python -m repro bench-profiles``.

Times are simulated nanoseconds, so the sweep is deterministic: the same
seed, knobs, and profile registry always produce the same rankings and
the same flip report.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.harness.scenariobench import find_flips

__all__ = [
    "BENCH_PROFILES_FILENAME",
    "DEFAULT_PROFILES",
    "run_profile_bench",
    "format_profile_bench",
    "write_profile_bench_json",
]

BENCH_PROFILES_FILENAME = "BENCH_PROFILES.json"

#: every registered hardware profile, Origin2000 first (the baseline)
DEFAULT_PROFILES = ("origin2000", "numa-epyc", "fat-tree-cluster", "dragonfly")

Cell = Tuple[str, int]  # (profile, nprocs)


def _cell_key(profile: str, nprocs: int) -> str:
    return f"{profile}/P{nprocs}"


def run_profile_bench(
    profiles: Sequence[str] = DEFAULT_PROFILES,
    models: Sequence[str] = ("mpi", "shmem", "sas"),
    nprocs_list: Iterable[int] = (2, 8, 32),
    scenario_class: str = "multi_front",
    intensity: float = 1.0,
    seed: int = 7,
    mesh_n: int = 8,
    phases: int = 4,
    solver_iters: int = 6,
    placement: str = "first-touch",
    store: Any = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Sweep model × P × hardware profile and report the ranking flips.

    Args:
        profiles: hardware profile names (validated against
            :data:`repro.machine.profiles.PROFILES` up front, so a typo
            fails before any cell runs).
        models: programming models to rank.
        nprocs_list: processor counts (the second sweep axis).
        scenario_class / intensity / seed / mesh_n / phases /
        solver_iters: the fixed scenario workload every cell runs — the
            defaults match one cell of the scenario sweep, so the
            ``origin2000`` rankings reproduce ``BENCH_SCENARIOS.json``.
        placement: page-placement policy of every run.
        store: a :class:`repro.serving.ResultStore` — cells whose full
            run signature (which includes the profile) is already on
            disk are served from it; cold and warm passes produce
            byte-identical records.
        jobs: shard uncached cells over this many worker processes.

    Returns:
        The JSON-ready BENCH_PROFILES record: per-cell rows, a model
        ranking per (profile, P), each profile's description and
        override count, the flip list in the established R-F shape,
        ``best_flips``, and ``axes_with_flips`` /
        ``axes_with_best_flips``.
    """
    from repro.machine.profiles import resolve_machine_profile
    from repro.serving import Cell as ServeCell
    from repro.serving import run_cells
    from repro.workloads.synth import generate_scenario

    profiles = [resolve_machine_profile(p).name for p in profiles]
    nprocs_list = list(nprocs_list)
    spec = generate_scenario(
        scenario_class,
        seed=seed,
        name=f"{scenario_class}-i{intensity:g}-s{seed}",
        mesh_n=mesh_n,
        phases=phases,
        solver_iters=solver_iters,
        intensity=intensity,
    )
    serve_cells = [
        ServeCell("scenario", model, n, spec, placement, machine_profile=profile)
        for profile in profiles
        for n in nprocs_list
        for model in models
    ]
    served = run_cells(serve_cells, store=store, jobs=jobs)
    failed = [r for r in served if r.summary is None]
    if failed:
        raise RuntimeError(
            f"profile sweep: {len(failed)} cell(s) failed, first: "
            f"{failed[0].cell.label()}: {failed[0].error}"
        )
    rows: List[Dict[str, Any]] = []
    ranking: Dict[str, List[str]] = {}
    ranks: Dict[Cell, List[str]] = {}
    summaries = iter(served)
    for profile in profiles:
        for n in nprocs_list:
            times: Dict[str, float] = {}
            for model in models:
                res = next(summaries).summary
                times[model] = res.elapsed_ns
                rows.append({
                    "machine_profile": profile,
                    "model": model,
                    "nprocs": n,
                    "elapsed_ns": res.elapsed_ns,
                    "elapsed_ms": res.elapsed_ns / 1e6,
                })
            ordered = sorted(models, key=lambda m: times[m])
            ranking[_cell_key(profile, n)] = ordered
            ranks[(profile, n)] = ordered
    flips = find_flips(ranks, [("machine_profile", profiles), ("nprocs", nprocs_list)])
    best_flips = [f for f in flips if f["best_changed"]]
    from repro.machine.profiles import PROFILES

    return {
        "benchmark": "profile-sweep",
        "seed": seed,
        "profiles": {
            p: {
                "description": PROFILES[p].description,
                "overrides": len(PROFILES[p].overrides),
            }
            for p in profiles
        },
        "profile_order": profiles,
        "models": list(models),
        "nprocs_list": nprocs_list,
        "scenario": {
            "class": scenario_class,
            "intensity": intensity,
            "name": spec.name,
            "content_hash": spec.content_hash(),
            "mesh_n": mesh_n,
            "phases": phases,
            "solver_iters": solver_iters,
        },
        "placement": placement,
        "cells": len(profiles) * len(nprocs_list),
        "rows": rows,
        "ranking": ranking,
        "best": {_cell_key(*cell): r[0] for cell, r in ranks.items()},
        "flips": flips,
        "best_flips": best_flips,
        "axes_with_flips": sorted({f["axis"] for f in flips}),
        "axes_with_best_flips": sorted({f["axis"] for f in best_flips}),
    }


def format_profile_bench(record: Dict[str, Any]) -> str:
    """Human-readable sweep table plus the flip report."""
    profiles = record["profile_order"]
    lines = [
        f"hardware-profile sweep: {record['cells']} cells "
        f"({len(profiles)} profiles x {len(record['nprocs_list'])} P), "
        f"scenario {record['scenario']['name']}",
        f"{'profile':>18} {'P':>4} "
        + " ".join(f"{m + ' ms':>12}" for m in record["models"])
        + "   ranking",
    ]
    by_cell: Dict[Tuple[str, int], Dict[str, float]] = {}
    for r in record["rows"]:
        by_cell.setdefault(
            (r["machine_profile"], r["nprocs"]), {}
        )[r["model"]] = r["elapsed_ms"]
    for (profile, n), times in by_cell.items():
        order = record["ranking"][_cell_key(profile, n)]
        lines.append(
            f"{profile:>18} {n:>4} "
            + " ".join(f"{times[m]:>12.3f}" for m in record["models"])
            + f"   {'>'.join(order)}"
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
        lines.append("ranking flips: none — the model ranking survives "
                     "every machine in this sweep")
    return "\n".join(lines)


def write_profile_bench_json(record: Dict[str, Any], path: Optional[str] = None) -> str:
    """Write the record to ``BENCH_PROFILES.json``; returns the path."""
    path = path or BENCH_PROFILES_FILENAME
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
