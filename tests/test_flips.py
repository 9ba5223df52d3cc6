"""The one ranking-flip finder, checked against both sweeps' recorded flips.

``tests/golden/flips.json`` holds hand-made ranking tables and the flip
lists the scenario and profile sweeps' own finders produced for them
before the two finders were merged into
:func:`repro.harness.scenariobench.find_flips`.
"""

import json
from pathlib import Path

from repro.harness.scenariobench import find_flips

GOLDEN = json.loads((Path(__file__).parent / "golden" / "flips.json").read_text())


def _ranks(section):
    return {tuple(key): ranking for key, ranking in section["ranks"]}


def _same(flips, recorded):
    assert flips == recorded
    # dict equality ignores order; the JSON records keep it
    assert [list(f["fixed"]) for f in flips] == [list(f["fixed"]) for f in recorded]
    assert [list(f) for f in flips] == [list(f) for f in recorded]


def test_scenario_sweep_axes():
    g = GOLDEN["scenario"]
    flips = find_flips(
        _ranks(g),
        [("scenario_class", g["classes"]), ("intensity", g["intensities"]), ("nprocs", g["nprocs"])],
    )
    _same(flips, g["flips"])


def test_profile_sweep_axes():
    g = GOLDEN["profile"]
    flips = find_flips(_ranks(g), [("machine_profile", g["profiles"]), ("nprocs", g["nprocs"])])
    _same(flips, g["flips"])


def test_no_flip_without_a_ranking_change():
    ranks = {(n,): ["shmem", "mpi"] for n in (2, 8, 32)}
    assert find_flips(ranks, [("nprocs", [2, 8, 32])]) == []
