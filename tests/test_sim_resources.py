"""Unit tests for FIFO resources and channels."""

import pytest

from repro.sim import Channel, Delay, Engine, Mutex, Resource, SimError


def test_resource_serialises_holders():
    eng = Engine()
    res = Resource(eng, capacity=1, name="link")
    spans = []

    def user(tag):
        yield from res.acquire()
        start = eng.now
        yield Delay(10)
        res.release()
        spans.append((tag, start, eng.now))

    for tag in range(3):
        eng.spawn(user(tag))
    eng.run()
    assert spans == [(0, 0, 10), (1, 10, 20), (2, 20, 30)]


def test_resource_capacity_two_overlaps():
    eng = Engine()
    res = Resource(eng, capacity=2)

    def user():
        yield from res.acquire()
        yield Delay(10)
        res.release()

    for _ in range(4):
        eng.spawn(user())
    eng.run()
    assert eng.now == 20  # two waves of two


def test_resource_fifo_ordering():
    eng = Engine()
    res = Resource(eng, capacity=1)
    order = []

    def user(tag, arrival):
        yield Delay(arrival)
        yield from res.acquire()
        order.append(tag)
        yield Delay(5)
        res.release()

    for tag, arrival in enumerate((0, 1, 2, 3)):
        eng.spawn(user(tag, arrival))
    eng.run()
    assert order == [0, 1, 2, 3]


def test_release_idle_is_error():
    eng = Engine()
    res = Resource(eng, capacity=1)
    with pytest.raises(SimError):
        res.release()


def test_bad_capacity_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        Resource(eng, capacity=0)


def test_using_holds_and_releases():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def user():
        yield from res.using(7)

    eng.spawn(user())
    eng.spawn(user())
    eng.run()
    assert eng.now == 14
    assert res.in_use == 0


def test_utilisation_accounting():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def user():
        yield from res.using(25)
        yield Delay(75)

    eng.spawn(user())
    eng.run()
    assert res.utilisation(100.0) == pytest.approx(0.25)


def test_wait_time_statistic():
    eng = Engine()
    res = Resource(eng, capacity=1)

    def user():
        yield from res.using(10)

    eng.spawn(user())
    eng.spawn(user())
    eng.run()
    assert res.total_wait_ns == pytest.approx(10)
    assert res.total_acquires == 2


def test_channel_put_then_get():
    eng = Engine()
    ch = Channel(eng)

    def consumer():
        item = yield from ch.get()
        return item

    ch.put("x")
    cons = eng.spawn(consumer())
    eng.run()
    assert cons.result == "x"


def test_channel_get_blocks_until_put():
    eng = Engine()
    ch = Channel(eng)

    def consumer():
        item = yield from ch.get()
        return item, eng.now

    def producer():
        yield Delay(5)
        ch.put(42)

    cons = eng.spawn(consumer())
    eng.spawn(producer())
    eng.run()
    assert cons.result == (42, 5)


def test_channel_fifo_and_len():
    eng = Engine()
    ch = Channel(eng)
    for i in range(3):
        ch.put(i)
    assert len(ch) == 3
    assert ch.peek_all() == [0, 1, 2]

    def consumer():
        out = []
        for _ in range(3):
            item = yield from ch.get()
            out.append(item)
        return out

    cons = eng.spawn(consumer())
    eng.run()
    assert cons.result == [0, 1, 2]
    assert len(ch) == 0


def test_process_and_callback_waiters_granted_fifo():
    """Mixed waiters on one busy resource are granted in arrival order.

    Each grant is one zero-delay engine entry at the release instant — a
    resumed process or a called-back callback — so it costs one seq.
    """
    eng = Engine()
    res = Resource(eng, capacity=1, name="link")
    log = []

    def granted(tag):
        log.append((tag, eng.now))
        eng.call_after(5.0, res.release)

    def holder():
        yield from res.acquire()       # free: no wait, no seq
        yield Delay(10)
        res.release()

    def waiter():
        yield Delay(2)
        yield from res.acquire()       # queued second, behind the callback
        log.append(("proc", eng.now))
        yield Delay(5)
        res.release()

    def requester():
        yield Delay(1)
        assert not res.claim(granted, ("cb1",))   # queued first
        yield Delay(2)
        assert not res.claim(granted, ("cb2",))   # queued third

    for gen in (holder(), waiter(), requester()):
        eng.spawn(gen)
    eng.run()
    assert log == [("cb1", 10.0), ("proc", 15.0), ("cb2", 20.0)]
    assert res.total_acquires == 4
    assert res.waited_acquires == 3
    assert res.total_wait_ns == (10.0 - 1) + (15.0 - 2) + (20.0 - 3)
    assert res.in_use == 0
    # 3 spawns + 5 Delays + 3 grants + 2 release timers
    assert eng.counters()["events"] == 13


def test_claim_takes_free_unit_without_queueing():
    eng = Engine()
    res = Resource(eng, capacity=1)
    assert res.claim(lambda: None)
    assert (res.in_use, res.total_acquires, res.waited_acquires) == (1, 1, 0)
    assert eng.counters()["events"] == 0
    res.release()
    assert res.in_use == 0
