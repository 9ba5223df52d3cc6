"""FIFO resources and channels built on the event kernel.

These are the contention primitives: a network link is a ``Resource`` with
capacity 1 that a message holds for its transfer time; a mailbox is a
``Channel``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.sim.engine import Engine, Event, Park, Process, SimError, WaitEvent

__all__ = ["Resource", "Mutex", "Channel"]


class Resource:
    """A counted FIFO resource.

    A unit is taken in one of two ways: ``yield from res.acquire()``
    blocks a process until a unit is free, and :meth:`claim` takes one
    for a callback, queueing the callback when none is free.
    ``res.release()`` hands the unit to the longest waiter of either kind.
    Each grant costs one zero-delay engine entry (one ``seq``): a process
    waiter is resumed, a callback waiter is called.  Statistics are kept
    for utilisation accounting (busy time integrates ``in_use`` over
    virtual time).
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        # (queued at, process, value) — exactly the engine's (proc, value)
        # entry shape, so a grant schedules the waiter as it stands:
        # (proc, None) resumes a process, (None, (fn, args)) calls back
        self._waiters: Deque[Tuple[float, Optional[Process], Any]] = deque()
        # statistics
        self.total_acquires = 0
        self.waited_acquires = 0   # acquires that found the resource busy
        self.total_wait_ns = 0.0
        self.busy_ns = 0.0
        self._last_change = 0.0

    def _account(self) -> None:
        now = self.engine.now
        self.busy_ns += self.in_use * (now - self._last_change)
        self._last_change = now

    def _take(self) -> bool:
        """Count one acquire; take a unit if one is free and nobody queues."""
        self.total_acquires += 1
        if self.in_use < self.capacity and not self._waiters:
            self._account()
            self.in_use += 1
            return True
        self.waited_acquires += 1
        return False

    def acquire(self) -> Generator:
        """Generator primitive: blocks until a unit is granted."""
        if not self._take():
            yield Park(self._queue_process)

    def _queue_process(self, proc: Process) -> None:
        proc._blocked_on = f"res:{self.name}"
        self._waiters.append((self.engine.now, proc, None))

    def claim(self, fn: Callable, args: tuple = ()) -> bool:
        """Take a unit for a callback.

        Returns ``True`` when a unit was free.  Otherwise queues the
        callback behind every earlier waiter and returns ``False``; the
        release that grants it the unit calls ``fn(*args)`` from a
        zero-delay engine entry, the slot a resumed process would take.
        """
        if self._take():
            return True
        self._waiters.append((self.engine.now, None, (fn, args)))
        return False

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        self._account()
        if self._waiters:
            # hand the unit directly to the next waiter: in_use stays flat
            since, proc, value = self._waiters.popleft()
            engine = self.engine
            self.total_wait_ns += engine.now - since
            engine._schedule(0.0, proc, value)
        else:
            self.in_use -= 1

    def using(self, hold_ns: float) -> Generator:
        """Acquire, hold for ``hold_ns``, release — the common pattern."""
        from repro.sim.engine import Delay

        yield from self.acquire()
        try:
            yield Delay(hold_ns)
        finally:
            self.release()

    def utilisation(self, horizon_ns: float) -> float:
        """Fraction of capacity-time in use over ``[0, horizon_ns]``."""
        if horizon_ns <= 0:
            return 0.0
        self._account()
        return self.busy_ns / (self.capacity * horizon_ns)


class Mutex(Resource):
    """A capacity-1 resource."""

    def __init__(self, engine: Engine, name: str = ""):
        super().__init__(engine, capacity=1, name=name)


class Channel:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks; ``yield from ch.get()`` blocks until an item is
    available.  Items are delivered in put order; blocked getters are served
    in arrival order.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_puts = 0

    def put(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        if self._items:
            return self._items.popleft()
            yield  # pragma: no cover - makes this a generator
        gate = self.engine.event(name=f"chan:{self.name}")
        self._getters.append(gate)
        item = yield WaitEvent(gate)
        return item

    def __len__(self) -> int:
        return len(self._items)

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (no removal) — for tests and matching."""
        return list(self._items)
