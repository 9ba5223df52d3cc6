"""Coverage for the remaining machine pieces: stats, nodes, machine glue,
and the program-launch registry."""

import numpy as np
import pytest

from repro.machine import Machine, MachineConfig
from repro.machine.node import build_nodes
from repro.machine.stats import CpuStats, MachineStats
from repro.models.registry import MODEL_NAMES, make_contexts, run_program
from repro.sim.engine import Delay


class TestStats:
    def test_charge_categories(self):
        c = CpuStats(cpu=0)
        c.charge("compute", 10)
        c.charge("comm", 20)
        c.charge("sync", 30)
        c.charge("stall", 40)
        assert c.busy_ns == 100
        assert c.breakdown() == {"compute": 10, "comm": 20, "sync": 30, "stall": 40}

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError):
            CpuStats().charge("waiting", 1)

    def test_misses_property(self):
        c = CpuStats(local_misses=1, remote_misses=2, dirty_misses=3)
        assert c.misses == 6

    def test_machine_stats_aggregation(self):
        s = MachineStats.for_nprocs(3)
        s.per_cpu[0].msgs_sent = 5
        s.per_cpu[2].msgs_sent = 7
        assert s.total("msgs_sent") == 12
        assert s.max_over_cpus("msgs_sent") == 7
        assert s.breakdown_totals()["compute"] == 0.0
        assert "msgs_sent" in s.summary()


class TestNodes:
    def test_node_cards(self):
        nodes = build_nodes(MachineConfig(nprocs=6))
        assert len(nodes) == 3
        assert nodes[0].cpus == (0, 1)
        assert nodes[2].cpus == (4, 5)
        assert nodes[2].router == 1

    def test_partial_last_node(self):
        nodes = build_nodes(MachineConfig(nprocs=5))
        assert nodes[2].cpus == (4,)


class TestMachineGlue:
    def test_spawn_rank_bounds(self):
        m = Machine(MachineConfig(nprocs=2))

        def prog():
            yield Delay(1)

        with pytest.raises(ValueError):
            m.spawn_rank(5, prog())

    def test_double_spawn_rejected(self):
        m = Machine(MachineConfig(nprocs=2))

        def prog():
            yield Delay(1)

        m.spawn_rank(0, prog())
        with pytest.raises(RuntimeError):
            m.spawn_rank(0, prog())

    def test_elapsed_is_max_rank_finish(self):
        m = Machine(MachineConfig(nprocs=2))

        def prog(t):
            yield Delay(t)
            return t

        m.spawn_rank(0, prog(100))
        m.spawn_rank(1, prog(250))
        m.run()
        assert m.elapsed_ns() == 250
        assert m.rank_finish_ns(0) == 100
        assert m.results() == [100, 250]

    def test_rank_finish_before_run_raises(self):
        m = Machine(MachineConfig(nprocs=1))
        with pytest.raises(RuntimeError):
            m.rank_finish_ns(0)

    @pytest.mark.parametrize("key", ["engine_batch", "net_batch", "mpi_match_batch"])
    def test_retired_switch_rejected_by_name(self, key):
        """The switches of the removed scalar paths fail loudly, not silently."""
        for value in ("on", "off"):
            with pytest.raises(ValueError, match=rf"derived\['{key}'\].*removed"):
                MachineConfig(nprocs=2, derived={key: value})


class TestRegistry:
    def test_model_names(self):
        assert set(MODEL_NAMES) == {"mpi", "shmem", "sas", "hybrid"}

    def test_unknown_model(self):
        m = Machine(MachineConfig(nprocs=2))
        with pytest.raises(ValueError, match="unknown model"):
            make_contexts(m, "pvm")

    def test_run_program_grows_config(self):
        def prog(ctx):
            yield from ctx.compute(1.0)
            return ctx.nprocs

        res = run_program("mpi", prog, 6, config=MachineConfig(nprocs=2))
        assert res.rank_results[0] == 6

    def test_run_program_machine_too_small(self):
        m = Machine(MachineConfig(nprocs=2))

        def prog(ctx):
            yield from ctx.compute(1.0)

        with pytest.raises(ValueError, match="machine has"):
            run_program("mpi", prog, 4, machine=m)

    def test_program_result_fields(self):
        def prog(ctx):
            ctx.phase_begin("work")
            yield from ctx.compute(500.0)
            ctx.phase_end()
            return ctx.rank

        res = run_program("sas", prog, 2)
        assert res.model == "sas"
        assert res.elapsed_ms == pytest.approx(res.elapsed_ns / 1e6)
        assert res.phase_ns["work"] >= 500.0
        assert res.rank_results == [0, 1]
