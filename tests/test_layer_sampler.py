"""The SIGPROF layer sampler behind ``run --profile``."""

import signal
import types

import pytest

from repro.harness.profile import (
    LAYERS,
    SAMPLE_INTERVAL_S,
    LayerSampler,
    frame_layer,
    layer_of,
)

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "setitimer"), reason="needs signal.setitimer (SIGPROF)"
)


@pytest.mark.parametrize(
    "relpath,layer",
    [
        ("models/mpi/matchq.py", "mpi-match"),
        ("models/mpi/context.py", "runtime"),
        ("machine/cache.py", "cache"),
        ("machine/topology.py", "machine"),
        ("machine/network.py", "network"),
        ("machine/directory.py", "directory"),
        ("sim/engine.py", "engine"),
        ("apps/adapt/mpi_app.py", "app"),
        ("partition/multilevel.py", "partition"),
        ("harness/experiment.py", "harness"),
        ("__main__.py", "harness"),
    ],
)
def test_layer_prefix_table(relpath, layer):
    assert layer_of(relpath) == layer


def _chain(*filenames):
    """A fake frame chain, innermost first."""
    frame = None
    for name in reversed(filenames):
        frame = types.SimpleNamespace(f_code=types.SimpleNamespace(co_filename=name), f_back=frame)
    return frame


def test_frame_without_repro_is_other():
    assert frame_layer(_chain("/usr/lib/python3/json/decoder.py", "<string>")) == "other"
    assert frame_layer(None) == "other"


def test_innermost_repro_frame_wins():
    import repro.machine.cache as cache_mod
    import repro.sim.engine as engine_mod

    chain = _chain("/usr/lib/numpy/core/fromnumeric.py", cache_mod.__file__, engine_mod.__file__)
    assert frame_layer(chain) == "cache"


def _burn(seconds):
    import time

    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_samples_and_report():
    with LayerSampler() as sampler:
        _burn(0.05)
    assert sampler.total > 0
    assert set(sampler.counts) == set(sampler.seconds)
    # each sample carries the CPU time since the last one: together they
    # account for the burn, whatever the kernel's real signal rate
    assert 0.03 < sum(sampler.seconds.values()) <= 0.2
    text = sampler.report()
    assert "total" in text and "samples" in text and "calls" not in text
    before = dict(sampler.counts)
    _burn(0.02)  # outside the block: no more samples
    assert sampler.counts == before


def test_restores_handler_and_timer_after_exception():
    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGPROF, previous)
    try:
        with pytest.raises(RuntimeError):
            with LayerSampler():
                assert signal.getitimer(signal.ITIMER_PROF)[1] == pytest.approx(SAMPLE_INTERVAL_S)
                raise RuntimeError("boom")
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGPROF, old)


@pytest.mark.parametrize("model", ["mpi", "shmem", "sas", "hybrid"])
def test_sampled_run_is_identical(model, monkeypatch):
    """Sampling changes no simulated result, and the timer path still runs."""
    from repro.__main__ import _workload
    from repro.harness import run_app
    from repro.machine.machine import Machine

    machines = []
    real_run = Machine.run

    def recording_run(self):
        machines.append(self)
        return real_run(self)

    monkeypatch.setattr(Machine, "run", recording_run)

    def one(sampled):
        machines.clear()
        wl = _workload("adapt", "small")
        if sampled:
            with LayerSampler() as sampler:
                result = run_app("adapt", model, 8, wl)
            assert sampler.total > 0
        else:
            result = run_app("adapt", model, 8, wl)
        (machine,) = machines
        return (
            result.elapsed_ns,
            result.rank_results,
            result.stats.summary(),
            machine.network.timer_fast_transfers,
            machine.engine.counters(),
        )

    plain = one(False)
    assert one(True) == plain
    if model == "mpi":
        assert plain[3] > 0  # the timer transfer path runs under the sampler too


def test_cli_profile_reports_layers(capsys):
    from repro.__main__ import main

    assert main(["run", "adapt", "mpi", "-p", "8", "-s", "small"]) == 0
    plain = capsys.readouterr().out
    assert main(["run", "adapt", "mpi", "-p", "8", "-s", "small", "--profile"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(plain)  # same simulated time and checksum
    rows = out[len(plain):].strip().splitlines()[2:]
    counts = {r.split()[0]: int(r.split()[1]) for r in rows}
    total = counts.pop("total")
    assert total == sum(counts.values()) > 0
    assert set(counts) <= {layer for _, layer in LAYERS} | {"harness", "other"}


def test_cli_profile_without_setitimer_exits_cleanly(monkeypatch):
    from repro.__main__ import main

    monkeypatch.delattr(signal, "setitimer")
    with pytest.raises(SystemExit) as exc:
        main(["run", "adapt", "mpi", "-p", "2", "-s", "small", "--profile"])
    assert "setitimer" in str(exc.value)


def test_cli_profile_on_store_hit_says_nothing_was_simulated(tmp_path, capsys):
    from repro.__main__ import main

    argv = [
        "run", "adapt", "mpi", "-p", "4", "-s", "small", "--profile",
        "--serve", "--cache-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "total" in first and "served from the result store" not in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "served from the result store, nothing was simulated" in second
    assert "total" not in second
    # the served cell reports the same simulated time and checksum
    assert second.splitlines()[:3] == first.splitlines()[:3]
