"""SHMEM atomic operations and distributed locks.

Atomics are remote read-modify-writes serviced at the target's memory: a
small request crosses the network, the operation executes at the target,
and the old value returns.  Because the simulation engine is cooperative,
the read-modify-write is naturally atomic at its execution instant; the
*cost* is a full round trip plus the software overhead.

``set_lock``/``clear_lock`` model ``shmem_set_lock``: the lock word lives on
rank 0's node, acquisition is an atomic swap, and contended waiters queue
FIFO (the real implementation builds an MCS-style queue with atomics).
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.sim.engine import WaitEvent

__all__ = ["fetch_add", "cswap", "set_lock", "clear_lock"]

_ATOMIC_BYTES = 64


def _round_trip(ctx, target_rank: int) -> Generator:
    """Request + response through the network, charged as communication.

    Under fault injection the round trip is retried as one unit until
    both legs deliver (the op executes once, at the instant the helper
    returns, so lost requests or responses never double-apply it).
    """
    yield from ctx.charged_delay("comm", ctx.cfg.shmem_op_ns)
    ctx.stats.atomics += 1
    if target_rank != ctx.rank:
        t0 = ctx.now
        target_node = ctx.cfg.node_of_cpu(target_rank)
        yield from ctx._with_retries(
            [
                (ctx.node, target_node, _ATOMIC_BYTES),
                (target_node, ctx.node, _ATOMIC_BYTES),
            ],
            "atomic", target_rank, _ATOMIC_BYTES,
        )
        ctx._charge("comm", ctx.now - t0)
    else:
        yield from ctx.charged_delay("comm", ctx.cfg.lock_rmw_ns)


def fetch_add(ctx, sym, target_rank: int, index: int, value) -> Generator:
    """Atomic fetch-and-add on ``sym[index]`` at ``target_rank``; returns old."""
    t0 = ctx.now
    yield from _round_trip(ctx, target_rank)
    flat = sym.copies[target_rank].reshape(-1)
    old = flat[index].item() if hasattr(flat[index], "item") else flat[index]
    flat[index] += value
    if ctx._obs.enabled:
        ctx._obs.emit(
            "atomic", t0, ctx.rank, target_rank, _ATOMIC_BYTES,
            dur=ctx.now - t0,
            attrs={"op": "fetch_add", "sym": sym.name, "index": int(index)},
        )
    return old


def cswap(ctx, sym, target_rank: int, index: int, cond, value) -> Generator:
    """Atomic compare-and-swap; returns the value observed before the swap."""
    t0 = ctx.now
    yield from _round_trip(ctx, target_rank)
    flat = sym.copies[target_rank].reshape(-1)
    old = flat[index].item() if hasattr(flat[index], "item") else flat[index]
    if old == cond:
        flat[index] = value
    if ctx._obs.enabled:
        ctx._obs.emit(
            "atomic", t0, ctx.rank, target_rank, _ATOMIC_BYTES,
            dur=ctx.now - t0,
            attrs={"op": "cswap", "sym": sym.name, "index": int(index)},
        )
    return old


def set_lock(ctx, name: str) -> Generator:
    """Acquire a named global lock (FIFO under contention)."""
    world = ctx.world
    t0 = ctx.now
    # the swap that attempts acquisition: a round trip to the lock's home
    yield from _round_trip(ctx, 0)
    owner = world._lock_owner.get(name)
    if owner is None:
        world._lock_owner[name] = ctx.rank
    else:
        queue = world._lock_queue.setdefault(name, deque())
        gate = ctx.machine.engine.event(name=f"shmem-lock:{name}:{ctx.rank}")
        queue.append((ctx.rank, gate))
        t1 = ctx.now
        yield WaitEvent(gate)
        ctx.stats.sync_ns += ctx.now - t1
    if ctx._obs.enabled:
        ctx._obs.emit(
            "lock", t0, ctx.rank, dur=ctx.now - t0,
            attrs={"name": name, "op": "acquire"},
        )


def clear_lock(ctx, name: str) -> Generator:
    """Release a named global lock, handing it to the next FIFO waiter."""
    world = ctx.world
    if world._lock_owner.get(name) != ctx.rank:
        raise RuntimeError(f"rank {ctx.rank} releasing lock {name!r} it does not hold")
    t0 = ctx.now
    yield from _round_trip(ctx, 0)
    queue = world._lock_queue.get(name)
    if queue:
        next_rank, gate = queue.popleft()
        world._lock_owner[name] = next_rank
        gate.fire()
    else:
        world._lock_owner.pop(name, None)
    if ctx._obs.enabled:
        ctx._obs.emit(
            "lock", t0, ctx.rank, dur=ctx.now - t0,
            attrs={"name": name, "op": "release"},
        )
