"""Host-time (wall-clock) profiling of the simulator's own subsystems.

The simulator charges *virtual* nanoseconds; this module measures how much
*host* time each subsystem (cache, directory, network, mesh, partition, ...)
burns producing them, so hot-path optimisations such as the batched
CC-SAS memory pipeline can be tracked PR over PR.

The profiler is a process-global singleton (``PROFILER``) that is disabled
by default; instrumentation sites guard on ``PROFILER.enabled`` (one
attribute read) so the hot path pays nothing when profiling is off.  The
public API lives in :mod:`repro.harness.profile`; this module is kept inside
``repro.sim`` only so the machine layer can import it without a package
cycle.

Usage::

    from repro.harness.profile import PROFILER, profile_section

    PROFILER.enable()
    with profile_section("mesh"):
        adapt_phase(...)
    print(PROFILER.report())
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

__all__ = [
    "Profiler",
    "PROFILER",
    "ENGINE_DISPATCH",
    "profile_section",
    "profile_generator",
    "profiled",
]

#: Bucket the engine bills its own run-loop overhead into: delay-lane
#: merges, cohort pops, and request dispatch, *excluding* the host time spent
#: inside process code (``gen.send``) — that belongs to whichever subsystem
#: the process is executing.  See ``Engine._run_batched_profiled``.
ENGINE_DISPATCH = "engine-dispatch"


class Profiler:
    """Named wall-clock accumulators with a context-manager API.

    Sections are flat, non-overlapping buckets by convention (the directory
    subtracts the time it spends inside the cache before booking its own),
    so ``sum(seconds)`` approximates total instrumented host time.
    """

    __slots__ = ("enabled", "_seconds", "_calls", "_active")

    def __init__(self) -> None:
        self.enabled = False
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}
        self._active: set = set()

    # -- control --------------------------------------------------------------

    def enable(self) -> "Profiler":
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        self.enabled = False
        return self

    def reset(self) -> "Profiler":
        self._seconds.clear()
        self._calls.clear()
        return self

    # -- recording ------------------------------------------------------------

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Account ``seconds`` of host time (and ``calls`` entries) to ``name``."""
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + calls

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into bucket ``name`` (no-op when disabled).

        Re-entering an already-active bucket is a no-op, so instrumenting
        both a driver (``adapt_phase``) and the primitives it calls
        (``refine_cascade`` etc.) never double-counts.
        """
        if not self.enabled or name in self._active:
            yield
            return
        self._active.add(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._active.discard(name)
            self.add(name, time.perf_counter() - t0)

    # -- reporting ------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self._seconds.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{section: {"seconds": s, "calls": n}}`` sorted by cost."""
        return {
            name: {"seconds": self._seconds[name], "calls": self._calls.get(name, 0)}
            for name in sorted(self._seconds, key=self._seconds.get, reverse=True)
        }

    def rows(self) -> List[Tuple[str, float, int]]:
        return [
            (name, vals["seconds"], int(vals["calls"]))
            for name, vals in self.summary().items()
        ]

    def report(self, title: str = "host-time profile") -> str:
        rows = self.rows()
        total = sum(s for _, s, _ in rows) or 1.0
        lines = [title, f"  {'section':<12} {'seconds':>10} {'%':>6} {'calls':>10}"]
        for name, secs, calls in rows:
            lines.append(f"  {name:<12} {secs:>10.4f} {100 * secs / total:>5.1f}% {calls:>10}")
        lines.append(f"  {'total':<12} {total:>10.4f}")
        return "\n".join(lines)


#: The process-global profiler every instrumentation site reports into.
PROFILER = Profiler()


@contextmanager
def profile_section(name: str) -> Iterator[None]:
    """Module-level shorthand for ``PROFILER.section(name)``."""
    with PROFILER.section(name):
        yield


def profiled(name: str):
    """Decorator billing every call of the wrapped function to ``name``."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not PROFILER.enabled:
                return fn(*args, **kwargs)
            with PROFILER.section(name):
                return fn(*args, **kwargs)

        return wrapper

    return deco


def profile_generator(name: str, gen):
    """Wrap a coroutine process so only its *resumptions* bill to ``name``.

    A plain ``section()`` around a simulation generator would also count
    the host time the process spends suspended (i.e. every other process's
    work).  This wrapper times each ``send`` individually and forwards the
    yielded requests untouched.
    """
    value = None
    while True:
        t0 = time.perf_counter()
        try:
            request = gen.send(value)
        except StopIteration as stop:
            PROFILER.add(name, time.perf_counter() - t0)
            return stop.value
        PROFILER.add(name, time.perf_counter() - t0)
        value = yield request
