"""SHMEM collectives built from puts and completion flags.

The real library implements these over pSync flag arrays: a rank puts its
contribution into a partner's staging buffer, then sets a flag the partner
spins on.  Here the "put + flag" pair is one :func:`_send`; the spin is a
wait on the matching signal event, charged to synchronisation time.

``to_all`` (the reduction family) uses recursive doubling with the standard
fold for non-power-of-two rank counts; ``broadcast`` is a binomial tree;
``collect`` reuses ``to_all`` with dictionary merge.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Generator, Optional

from repro.models.payload import nbytes_of
from repro.sim.engine import WaitEvent

__all__ = ["broadcast", "collect", "to_all"]


def _observed(op: str):
    """Emit one ``collective`` event per traced call (cf. the MPI twin)."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs) -> Generator:
            if not ctx._obs.enabled:
                result = yield from fn(ctx, *args, **kwargs)
                return result
            t0 = ctx.now
            result = yield from fn(ctx, *args, **kwargs)
            ctx._obs.emit(
                "collective", t0, ctx.rank, dur=ctx.now - t0,
                attrs={"op": op, "model": "shmem"},
            )
            return result

        return wrapper

    return deco


def _send(ctx, dst: int, tag, value: Any) -> Generator:
    """Model of 'put data into partner's staging buffer, then set flag'."""
    size = nbytes_of(value)
    ctx.stats.puts += 1
    ctx.stats.put_bytes += size
    if ctx._obs.enabled:
        # emitted as coll_xfer (not "put"): staging-buffer traffic carries
        # its own completion flag, so the sync checker must not demand a
        # fence for it
        ctx._obs.emit(
            "coll_xfer", ctx.now, ctx.rank, dst, size, attrs={"wire": size + 8}
        )
    yield from ctx.charged_delay("comm", ctx.cfg.shmem_op_ns)
    ctx.machine.engine.spawn(
        _deliver(ctx, dst, tag, value, size), name=f"shmem-coll:{ctx.rank}->{dst}"
    )


def _deliver(ctx, dst: int, tag, value: Any, size: int) -> Generator:
    wire = size + 8  # data + flag line
    dst_node = ctx.cfg.node_of_cpu(dst)
    # the partner spins on the flag, so a lost staging put would hang
    # the collective — retransmit until the flag line lands
    yield from ctx._with_retries([(ctx.node, dst_node, wire)], "coll", dst, wire)
    ctx.world.signal(dst, tag, value)


def _recv(ctx, tag) -> Generator:
    """Spin on the flag: blocked time counts as synchronisation."""
    ev = ctx.world.wait_signal(ctx.rank, tag)
    t0 = ctx.now
    value = yield WaitEvent(ev)
    ctx.stats.sync_ns += ctx.now - t0
    return value


@_observed("broadcast")
def broadcast(ctx, value: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; every rank returns the value."""
    n = ctx.nprocs
    seq = ctx._next_coll_tag()
    if n == 1:
        return value
    vrank = (ctx.rank - root) % n
    mask = 1
    while mask < n:
        if vrank & mask:
            value = yield from _recv(ctx, ("bc", seq, vrank))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < n:
            yield from _send(ctx, (child + root) % n, ("bc", seq, child), value)
        mask >>= 1
    return value


@_observed("to_all")
def to_all(ctx, value: Any, op: Optional[Callable] = None) -> Generator:
    """Reduction-to-all via recursive doubling (with non-power-of-2 fold)."""
    import operator

    fn: Callable = operator.add if op is None else op
    n = ctx.nprocs
    seq = ctx._next_coll_tag()
    if n == 1:
        return value
    p2 = 1 << (n.bit_length() - 1)  # largest power of two <= n
    extras = n - p2
    rank = ctx.rank
    result = value
    # fold: the top `extras` ranks send their value down
    if rank >= p2:
        yield from _send(ctx, rank - p2, ("fold", seq), result)
    else:
        if rank < extras:
            other = yield from _recv(ctx, ("fold", seq))
            result = fn(result, other)
        # recursive doubling among the power-of-two group
        mask = 1
        while mask < p2:
            partner = rank ^ mask
            yield from _send(ctx, partner, ("rd", seq, mask), result)
            other = yield from _recv(ctx, ("rd", seq, mask))
            result = fn(result, other)
            mask <<= 1
        if rank < extras:
            yield from _send(ctx, rank + p2, ("unfold", seq), result)
    if rank >= p2:
        result = yield from _recv(ctx, ("unfold", seq))
    return result


def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    out.update(b)
    return out


@_observed("collect")
def collect(ctx, value: Any) -> Generator:
    """All-gather: every rank returns the rank-ordered list of values."""
    table = yield from to_all(ctx, {ctx.rank: value}, _merge)
    return [table[i] for i in range(ctx.nprocs)]
