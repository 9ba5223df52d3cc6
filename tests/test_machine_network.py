"""Unit tests for the contended interconnect."""

import pytest

from repro.machine import Machine, MachineConfig


def run_transfers(machine, transfers):
    """Spawn concurrent transfers; returns completion times in spawn order."""
    done = []

    def mover(src, dst, nbytes, start):
        from repro.sim.engine import Delay

        yield Delay(start)
        yield from machine.network.transfer(src, dst, nbytes)
        done.append(machine.engine.now)

    for spec in transfers:
        machine.engine.spawn(mover(*spec))
    machine.engine.run()
    return done


def test_uncontended_matches_pipe_ns():
    m = Machine(MachineConfig(nprocs=16))
    times = run_transfers(m, [(0, 5, 4096, 0)])
    assert times[0] == pytest.approx(m.network.pipe_ns(0, 5, 4096))


def test_intra_node_transfer_uses_memory_copy():
    m = Machine(MachineConfig(nprocs=4))
    times = run_transfers(m, [(1, 1, 1024, 0)])
    assert times[0] == pytest.approx(1024 / m.config.intra_node_copy_bpns)


def test_more_hops_cost_more():
    m = Machine(MachineConfig(nprocs=32))
    near = m.network.pipe_ns(0, 1, 1024)   # same router
    far = m.network.pipe_ns(0, 15, 1024)   # across the hypercube
    assert far > near


def test_contention_serialises_shared_link():
    m = Machine(MachineConfig(nprocs=16))
    # two transfers from node 0 at t=0 share node 0's hub-out link
    times = sorted(run_transfers(m, [(0, 4, 8192, 0), (0, 5, 8192, 0)]))
    solo = m.network.pipe_ns(0, 4, 8192)
    assert times[0] == pytest.approx(solo)
    assert times[1] > solo * 1.5


def test_disjoint_paths_do_not_interfere():
    m = Machine(MachineConfig(nprocs=16))
    solo_a = m.network.pipe_ns(0, 1, 8192)
    times = run_transfers(m, [(0, 1, 8192, 0), (4, 5, 8192, 0)])
    assert times[0] == pytest.approx(solo_a)
    assert times[1] == pytest.approx(m.network.pipe_ns(4, 5, 8192))


def test_negative_size_rejected():
    m = Machine(MachineConfig(nprocs=4))

    def bad():
        yield from m.network.transfer(0, 1, -1)

    m.engine.spawn(bad())
    with pytest.raises(ValueError):
        m.engine.run()


def test_traffic_statistics():
    m = Machine(MachineConfig(nprocs=8))
    run_transfers(m, [(0, 2, 1000, 0), (1, 1, 500, 0)])
    assert m.stats.network_messages == 2
    assert m.stats.network_bytes == 1000  # intra-node bytes don't hit links


def test_many_concurrent_transfers_complete():
    """Stress the no-deadlock guarantee: all-to-all burst on 32 CPUs."""
    m = Machine(MachineConfig(nprocs=32))
    specs = []
    n = m.config.nnodes
    for s in range(n):
        for d in range(n):
            if s != d:
                specs.append((s, d, 2048, 0))
    times = run_transfers(m, specs)
    assert len(times) == n * (n - 1)


def test_link_utilisations_shape():
    m = Machine(MachineConfig(nprocs=8))
    run_transfers(m, [(0, 3, 65536, 0)])
    utils = m.network.link_utilisations()
    assert len(utils) == len(m.topology.links)
    assert any(u > 0 for u in utils)
    assert all(0 <= u <= 1.0 + 1e-9 for u in utils)


def test_blocking_and_callback_transfers_share_one_link_fifo():
    """A parked blocking transfer and two callback transfers queue on one link.

    All three leave node 0 through its hub-out link: callback transfer c1
    claims it at t=0, the blocking transfer queues behind it at t=1 and
    callback transfer c2 at t=2.  Grants go in FIFO order across both
    kinds of waiter.  The arrival times, link statistics and engine seq
    count are literals recorded from the coroutine transfer path, which
    this timeline must match exactly.
    """
    from repro.sim.engine import Delay

    m = Machine(MachineConfig(nprocs=16, derived={"link_stats": "on"}))
    net, eng = m.network, m.engine
    arrivals = []

    def arrived(tag, delivered):
        assert delivered
        arrivals.append((tag, eng.now))

    def issuer():
        net.transfer_async(0, 4, 8192, arrived, "c1")
        yield Delay(2.0)
        net.transfer_async(0, 6, 2048, arrived, "c2")

    def blocker():
        yield Delay(1.0)
        delivered = yield from net.transfer(0, 5, 4096)
        arrived("blocking", delivered)

    eng.spawn(issuer())
    eng.spawn(blocker())
    eng.run()
    assert arrivals == [
        ("c1", 10663.564102564102),
        ("blocking", 16075.846153846152),
        ("c2", 18903.48717948718),
    ]
    hub_out = net.link_stats()[0]
    assert (hub_out.kind, hub_out.src, hub_out.bytes) == ("hub-out", 0, 14336)
    assert (hub_out.acquires, hub_out.claim_waits) == (3, 2)
    assert hub_out.queued_ns == 26736.410256410254
    assert hub_out.busy_ns == 18903.48717948718
    assert eng.counters()["events"] == 11
    assert net.timer_fast_transfers == 1  # only c1 found its route free
    assert (m.stats.network_messages, m.stats.network_bytes) == (3, 14336)
