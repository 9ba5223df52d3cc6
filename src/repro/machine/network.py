"""Contended interconnect: messages occupy the links of their route.

A transfer acquires every directed link on its (dimension-ordered) route in
path order, holds them all for the pipelined transfer time, then releases.
Because link acquisition order is strictly increasing in the global link
ranking (hub-out < cube dim 0 < cube dim 1 < ... < hub-in), circular waits
are impossible and the network cannot deadlock.

Cost of an uncontended transfer of ``n`` bytes over ``h`` router hops
(``d`` of them in deep hypercube dimensions, which exist only past 8
routers / 32 CPUs)::

    2*hub + h*router_hop + d*deep_hop_extra + n / link_bandwidth   (inter-node)
    n / intra_node_copy_bandwidth                                  (same node)

Contention appears as queueing delay on busy links.

Every transfer runs one claim state machine, driven by engine callbacks
rather than a coroutine (:meth:`Network._begin`): count the message,
draw the fault verdict, claim the route's links in rank order (waiting
at the first busy one as a :meth:`Resource.claim` callback), set one
arrival timer for the pipe time plus any stall (a duplicate sets a
second pipe timer), release the links in reverse order, emit the
``net``/``fault_*`` observations and report ``delivered``.  Callers
enter it two ways.  :meth:`Network.transfer_async` starts it from a
zero-delay timer and calls the caller's callback on arrival (SHMEM
puts, MPI eager sends).  :meth:`Network.transfer` is the blocking form:
the calling process parks (:class:`~repro.sim.engine.Park`, no ``seq``)
and the arrival timer resumes it.  Each step takes exactly the engine
``seq`` slots a transfer coroutine doing the same steps would take — a
link grant one zero-delay entry, the arrival one timer — so the
recorded timelines (``tests/golden``) hold, faults on or off.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.faults import FaultPlane
from repro.machine.config import MachineConfig
from repro.machine.stats import MachineStats
from repro.machine.topology import Topology
from repro.obs.events import EventLog
from repro.sim.engine import Engine, Park
from repro.sim.resources import Resource

__all__ = ["Network"]


class _Transfer:
    """State of one in-flight inter-node transfer (see ``Network._begin``)."""

    __slots__ = (
        "t0", "src", "dst", "nbytes", "resources", "link_idxs", "claimed",
        "pipe_ns", "extra_ns", "dropped", "duplicated", "echo",
        "on_done", "arg",
    )

    def __init__(self, t0, src, dst, nbytes, resources, link_idxs, pipe_ns, on_done, arg):
        self.t0 = t0
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.resources = resources
        self.link_idxs = link_idxs
        self.claimed = 0          # links of the route held so far
        self.pipe_ns = pipe_ns
        self.extra_ns = 0.0       # injected stall
        self.dropped = False
        self.duplicated = False
        self.echo = False         # the duplicate's second pipe is still due
        self.on_done = on_done
        self.arg = arg


class Network:
    """The machine's interconnect: one FIFO resource per directed link."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        stats: MachineStats,
        obs: Optional[EventLog] = None,
        faults: Optional[FaultPlane] = None,
    ):
        self.engine = engine
        self.topology = topology
        self.config: MachineConfig = topology.config
        self.stats = stats
        self.obs = obs if obs is not None else EventLog()
        self.faults = faults if faults is not None else FaultPlane()
        self.link_resources: List[Resource] = [
            Resource(engine, capacity=1, name=repr(link))
            for link in topology.links
        ]
        # transfers whose route was free at their start (no link wait);
        # perfbench reports it as machine.timer_transfer_ratio
        self.timer_fast_transfers = 0
        # per-link byte counters, allocated only when link stats are on
        # (derived["link_stats"] = "on") — the default pays nothing beyond
        # one is-None check per transfer
        self.link_bytes: Optional[List[int]] = (
            [0] * len(topology.links)
            if str(self.config.derived.get("link_stats", "off")).lower()
            in ("on", "1", "true")
            else None
        )
        # per-route (resources, router hops, static pipe ns, link indices) —
        # the hot-path view of the routing table
        self._route_cache: Dict[
            Tuple[int, int], Tuple[Tuple[Resource, ...], int, float, Tuple[int, ...]]
        ] = {}

    # -- cost helpers ---------------------------------------------------------

    def _route_entry(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[Resource, ...], int, float, Tuple[int, ...]]:
        key = (src_node, dst_node)
        entry = self._route_cache.get(key)
        if entry is None:
            info = self.topology.route_info(src_node, dst_node)
            entry = (
                tuple(self.link_resources[i] for i in info.links),
                info.hops,
                self.topology.route_static_ns(info),
                info.links,
            )
            self._route_cache[key] = entry
        return entry

    def pipe_ns(self, src_node: int, dst_node: int, nbytes: int) -> float:
        """Uncontended transfer time (used by analytic estimates and tests)."""
        if src_node == dst_node:
            return nbytes / self.config.intra_node_copy_bpns
        _, _, static_ns, _ = self._route_entry(src_node, dst_node)
        return static_ns + nbytes / self.config.link_bandwidth_bpns

    # -- the transfer primitive ---------------------------------------------------

    def transfer(self, src_node: int, dst_node: int, nbytes: int) -> Generator:
        """Blocking transfer: completes when the last byte arrives at ``dst_node``.

        Returns ``True`` when the payload was delivered.  With fault
        injection enabled the transfer may be dropped in flight (returns
        ``False``), stalled (a transient per-hop delay while the links are
        held), or duplicated (the links carry the same bytes twice); with
        the fault plane disabled it always returns ``True`` and is
        bit-identical to the fault-free model.  The caller parks once;
        the transfer's arrival timer resumes it.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        delivered = yield Park(
            self._begin, (src_node, dst_node, nbytes, self.engine._step)
        )
        return delivered

    def transfer_async(
        self,
        src_node: int,
        dst_node: int,
        nbytes: int,
        on_done: Callable,
        arg,
    ) -> None:
        """Non-blocking transfer: ``on_done(arg, delivered)`` runs on arrival.

        The transfer starts from a zero-delay timer, the slot a spawned
        transfer process would start in, so completion ties between
        concurrent transfers order as they always have.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.engine.call_after(
            0.0, self._begin, (arg, src_node, dst_node, nbytes, on_done)
        )

    def _begin(self, arg, src_node, dst_node, nbytes, on_done) -> None:
        """Start one transfer; ``on_done(arg, delivered)`` ends it."""
        engine = self.engine
        self.stats.network_messages += 1
        t0 = engine.now
        if src_node == dst_node:
            self.timer_fast_transfers += 1
            engine.call_after(
                nbytes / self.config.intra_node_copy_bpns,
                self._arrive_local,
                (t0, src_node, nbytes, on_done, arg),
            )
            return
        self.stats.network_bytes += nbytes
        resources, hops, static_ns, link_idxs = self._route_entry(src_node, dst_node)
        if self.link_bytes is not None:
            for i in link_idxs:
                self.link_bytes[i] += nbytes
        x = _Transfer(
            t0, src_node, dst_node, nbytes, resources, link_idxs,
            static_ns + nbytes / self.config.link_bandwidth_bpns, on_done, arg,
        )
        if self.faults.enabled:
            x.dropped, x.extra_ns, x.duplicated = self.faults.link_verdict(
                src_node, dst_node, hops, t0, link_idxs
            )
            x.echo = x.duplicated
        if self._claim(x):
            self.timer_fast_transfers += 1

    def _claim(self, x: _Transfer) -> bool:
        """Claim the route's links in rank order; set the arrival timer.

        Returns ``False`` when a busy link queued this method as its
        callback: the grant calls it again, from the next link on.
        """
        resources = x.resources
        while x.claimed < len(resources):
            res = resources[x.claimed]
            x.claimed += 1
            if not res.claim(self._claim, (x,)):
                return False
        self.engine.call_after(x.pipe_ns + x.extra_ns, self._arrive, (x,))
        return True

    def _arrive(self, x: _Transfer) -> None:
        if x.echo:
            # the spurious copy follows back-to-back on the same route;
            # the receiver filters it, but the links pay for it
            x.echo = False
            self.stats.network_bytes += x.nbytes
            if self.link_bytes is not None:
                for i in x.link_idxs:
                    self.link_bytes[i] += x.nbytes
            self.engine.call_after(x.pipe_ns, self._arrive, (x,))
            return
        for res in reversed(x.resources):
            res.release()
        if self.obs.enabled:
            obs = self.obs
            t0, src, dst, nbytes = x.t0, x.src, x.dst, x.nbytes
            obs.emit("net", t0, src, dst, nbytes, dur=self.engine.now - t0)
            if x.dropped:
                obs.emit("fault_drop", t0, src, dst, nbytes)
            if x.duplicated:
                obs.emit("fault_dup", t0, src, dst, nbytes)
            if x.extra_ns > 0.0:
                obs.emit("fault_delay", t0, src, dst, nbytes, dur=x.extra_ns)
        x.on_done(x.arg, not x.dropped)

    def _arrive_local(self, t0, node, nbytes, on_done, arg) -> None:
        if self.obs.enabled:
            self.obs.emit("net", t0, node, node, nbytes, dur=self.engine.now - t0)
        on_done(arg, True)

    def link_utilisations(self) -> List[float]:
        """Per-link utilisation over the run so far (diagnostics)."""
        horizon = max(self.engine.now, 1e-9)
        return [r.utilisation(horizon) for r in self.link_resources]

    def link_stats(self) -> List["LinkStats"]:
        """Per-link contention snapshot (requires ``derived["link_stats"]="on"``).

        One :class:`~repro.machine.stats.LinkStats` per directed link, keyed
        on the stable ``(kind, src, dst)`` link identity, covering the run so
        far: bytes carried, claims, claim waits, queued ns, busy ns, and the
        saturation fraction (busy time over elapsed time).  Raises
        ``RuntimeError`` when link stats were not enabled — the counters
        would silently read zero otherwise.
        """
        from repro.machine.stats import LinkStats

        if self.link_bytes is None:
            raise RuntimeError(
                'per-link stats are off; enable with derived["link_stats"] = "on" '
                "(CLI: run --link-stats)"
            )
        horizon = max(self.engine.now, 1e-9)
        plane = self.faults
        correlated = plane.link_drops is not None
        out: List[LinkStats] = []
        for i, (link, res, nbytes) in enumerate(
            zip(self.topology.links, self.link_resources, self.link_bytes)
        ):
            out.append(
                LinkStats(
                    kind=link.kind,
                    src=link.src,
                    dst=link.dst,
                    dim=link.dim,
                    bytes=nbytes,
                    acquires=res.total_acquires,
                    claim_waits=res.waited_acquires,
                    queued_ns=res.total_wait_ns,
                    busy_ns=res.busy_ns,
                    saturation=res.utilisation(horizon),
                    # fault-plane exposure: per-link burst counters under a
                    # correlated profile, zeros otherwise
                    fault_drops=plane.link_drops[i] if correlated else 0,
                    ge_bad=plane.link_ge_bad[i] if correlated else 0,
                    fault_stall_ns=plane.link_stall_ns[i] if correlated else 0.0,
                )
            )
        return out
