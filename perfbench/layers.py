"""Per-layer tracing for the benchmark's traced run.

The traced run wraps the public entry points of each layer of ``repro``
from the outside: the program's sources are untouched, and nothing here
is active unless :meth:`LayerTracer.install` is called.  Each wrapper
records a span (layer, start, end) on a stack, so a layer's *busy* time
is the wall time of its outermost spans and its *self* time is busy time
minus the part its child spans cover.  After-hooks read the counters the
layers already expose (``Engine.counters()``, ``MachineStats``, the MPI
match queues, the network's timer transfers, the fault plane's summary,
the result store's hit/miss/put counts) at the same boundaries.

``Machine.run`` interleaves the ``models``, ``sim`` and ``machine``
coroutines, so inside it the split is by counts, not by time: ``sim.run_s``
is the whole of ``Machine.run``, including the solver kernels that app
programs call from inside it (``solver.busy_s`` overlaps it).

Pool workers of the serving layer are forked with the wrappers in place;
each worker writes its span totals to a file that the parent merges, so
busy seconds of a served sweep are summed over the parent and its
workers.  Cells the serving layer computes inline (one job, or no
process support) are recorded by the parent's tracer directly.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import uuid
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerTracer", "layer_metrics", "PER_LAYER_UNITS"]


#: modules whose bindings of a traced function are patched
PATCH_MODULES = ("repro", "perfbench.workloads")

# (dotted module, attribute, layer, span name, after-hook name or None).
# A module function is patched wherever a module in PATCH_MODULES has
# bound it, so ``from x import f`` call sites are covered too.
FUNCTIONS = [
    ("repro.apps.adapt.script", "build_script", "apps", "build_script", "_after_build"),
    ("repro.mesh.generator", "structured_mesh", "mesh", "structured_mesh", None),
    ("repro.mesh.coarsen", "coarsen", "mesh", "coarsen", None),
    ("repro.mesh.refine", "close_marks", "mesh", "close_marks", None),
    ("repro.mesh.refine", "refine_cascade", "mesh", "refine_cascade", None),
    ("repro.mesh.refine", "dissolve_green_families", "mesh", "dissolve_green_families", None),
    ("repro.mesh.refine", "hanging_edge_marks", "mesh", "hanging_edge_marks", None),
    ("repro.mesh.error", "distance_band_marks", "mesh", "distance_band_marks", None),
    ("repro.partition.graph", "mesh_dual_graph", "partition", "mesh_dual_graph", None),
    ("repro.partition.multilevel", "multilevel", "partition", "multilevel", "_after_partition"),
    ("repro.partition.rcb", "rcb", "partition", "rcb", "_after_partition"),
    ("repro.partition.spectral", "spectral", "partition", "spectral", "_after_partition"),
    ("repro.plum.balancer", "inherit_ownership", "plum", "inherit_ownership", None),
    ("repro.solver.kernels", "jacobi_sweep", "solver", "jacobi_sweep", None),
    ("repro.solver.kernels", "interpolate_new_vertices", "solver", "interpolate_new_vertices", None),
    ("repro.solver.kernels", "vertex_csr", "solver", "vertex_csr", None),
    ("repro.solver.kernels", "residual_norm", "solver", "residual_norm", None),
    ("repro.models.registry", "make_contexts", "models", "make_contexts", None),
    ("repro.serving.scheduler", "run_tasks", "serving", "run_tasks", None),
    ("repro.serving.store", "cache_key", "serving", "cache_key", None),
]

# (dotted module, class, method, layer, span name, after-hook name or None)
METHODS = [
    ("repro.mesh.mesh2d", "TriMesh", "validate", "mesh", "validate", None),
    ("repro.plum.balancer", "PlumBalancer", "initial_partition", "plum", "initial_partition", None),
    ("repro.plum.balancer", "PlumBalancer", "rebalance", "plum", "rebalance", "_after_rebalance"),
    ("repro.machine.machine", "Machine", "__init__", "machine", "build", None),
    ("repro.machine.machine", "Machine", "run", "sim", "run", "_after_machine_run"),
    ("repro.serving.scheduler", "Cell", "signature", "serving", "signature", None),
    ("repro.serving.store", "ResultStore", "get", "serving", "store_get", None),
    ("repro.serving.store", "ResultStore", "put", "serving", "store_put", None),
]


class LayerTracer:
    """Span and counter recorder over the layers of ``repro``.

    Args:
        worker_dir: directory where forked serving workers leave their
            span totals (see :meth:`merge_workers`).
    """

    def __init__(self, worker_dir: Optional[str] = None):
        self.worker_dir = worker_dir
        self._parent_pid: Optional[int] = None
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop every span and count recorded so far."""
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.fn_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # one frame per open span: [layer, child seconds, paused seconds]
        self._stack: List[list] = []
        self._active: Dict[str, int] = defaultdict(int)

    def wrap(self, fn: Callable, layer: str, name: str, after: Optional[str]) -> Callable:
        """``fn`` with a span around it; nested calls in one layer pass through."""
        hook = getattr(self, after) if after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._active[layer]:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, 0.0]
            self._stack.append(frame)
            self._active[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._active[layer] -= 1
                dt = t1 - t0 - frame[2]
                self.busy[layer] += dt
                self.self_s[layer] += dt - frame[1]
                self.calls[layer] += 1
                self.fn_s[name] += dt
                if self._stack:
                    self._stack[-1][1] += dt
                    self._stack[-1][2] += frame[2]
            if hook is not None:
                # the hook's own cost is hidden from every enclosing span
                h0 = perf_counter()
                hook(args, result)
                if self._stack:
                    self._stack[-1][2] += perf_counter() - h0
            return result

        return traced

    # -- after-hooks: counters the layers expose --------------------------

    def _after_build(self, args, script) -> None:
        self.counts["apps.builds"] += 1
        self.counts["mesh.elements"] += sum(p.nels for p in script.phases)

    def _after_partition(self, args, part) -> None:
        from repro.partition.metrics import edge_cut

        graph = args[0]
        self.counts["partition.vertices"] += graph.num_vertices
        self.counts["partition.edge_cut"] += edge_cut(graph, part)

    def _after_rebalance(self, args, result) -> None:
        self.counts["plum.checks"] += 1
        if result.rebalanced:
            self.counts["plum.rebalances"] += 1
            if result.cost is not None:
                self.counts["plum.migrated"] += result.cost.moved_elements

    def _after_machine_run(self, args, elapsed) -> None:
        machine = args[0]
        c = self.counts
        eng = machine.engine.counters()
        c["sim.events"] += eng["events"]
        c["sim.cohorts"] += eng["cohorts_drained"]
        c["sim.timer_calls"] += eng["timer_calls"]
        c["sim.zero_lane_hits"] += eng["zero_lane_hits"]
        stats = machine.stats
        c["machine.messages"] += stats.network_messages
        c["machine.bytes"] += stats.network_bytes
        c["machine.dir_transactions"] += stats.directory_transactions
        c["machine.l2_hits"] += stats.total("l2_hits")
        c["machine.misses"] += sum(cpu.misses for cpu in stats.per_cpu)
        c["machine.timer_transfers"] += machine.network.timer_fast_transfers
        world = getattr(machine, "mpi_world", None)
        if world is not None:
            mc = world.match_counters()
            c["models.mpi_probes"] += sum(mc.values())
            c["models.mpi_fast_matches"] += mc["head_hits"] + mc["index_hits"]
        if machine.faults.enabled:
            fs = machine.faults.summary()
            fc = fs["counters"]
            c["faults.injected"] += fc["drop"] + fc["dup"] + fc["delay"] + fc["nack"]
            c["faults.retries"] += fs["total_retries"]

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Patch every entry point listed in FUNCTIONS and METHODS."""
        import importlib

        self._parent_pid = os.getpid()
        for modname, attr, layer, name, after in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            wrapped = self.wrap(original, layer, name, after)
            for mod in [m for k, m in sys.modules.items() if k.startswith(PATCH_MODULES) and m]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
            if layer == "partition":
                from repro.partition import PARTITIONERS

                for key, value in PARTITIONERS.items():
                    if value is original:
                        self._set(PARTITIONERS, key, wrapped, item=True)
        for modname, clsname, meth, layer, name, after in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            self._set(cls, meth, self.wrap(vars(cls)[meth], layer, name, after))
        self._install_worker_hook()

    def _install_worker_hook(self) -> None:
        """Make forked serving workers report their spans to ``worker_dir``."""
        from repro.serving import scheduler

        original = scheduler._compute_cell
        tracer = self

        # pickled by reference: the pool resolves ``_compute_cell`` in the
        # forked worker, where this wrapper is the module attribute
        @functools.wraps(original)
        def compute_cell(kwargs):
            # a worker starts from the parent's totals at fork time: drop
            # them and hand over its own; an inline cell is the parent's
            forked = os.getpid() != tracer._parent_pid
            if forked:
                tracer.reset()
            t0 = perf_counter()
            payload = original(kwargs)
            tracer.fn_s["worker"] += perf_counter() - t0
            if forked:
                tracer.dump_worker()
            return payload

        self._set(scheduler, "_compute_cell", compute_cell)

    def _set(self, owner: Any, key: str, value: Any, item: bool = False) -> None:
        if item:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, key, original, item = self._patches.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- worker hand-off ----------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict copy of every total."""
        return {
            "busy": dict(self.busy),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "fn_s": dict(self.fn_s),
            "counts": dict(self.counts),
        }

    def merge(self, snap: Dict[str, Dict[str, float]]) -> None:
        """Add another tracer's :meth:`snapshot` into this one."""
        for field, values in snap.items():
            target = getattr(self, field)
            for key, value in values.items():
                target[key] += value

    def dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"{os.getpid()}-{uuid.uuid4().hex}.json")
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)

    def merge_workers(self) -> None:
        """Fold in and delete every worker file written so far."""
        if not self.worker_dir or not os.path.isdir(self.worker_dir):
            return
        for name in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, name)
            with open(path) as fh:
                self.merge(json.load(fh))
            os.remove(path)


# -- per-layer metrics ------------------------------------------------------

#: every per-layer metric and its unit, in report order
PER_LAYER_UNITS: Dict[str, str] = {
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "setup.prebuild_s": "s",
    "setup.store_seed_s": "s",
    "apps.build_s": "s",
    "apps.builds": "count",
    "apps.self_s": "s",
    "mesh.busy_s": "s",
    "mesh.calls": "count",
    "mesh.elements": "count",
    "partition.busy_s": "s",
    "partition.calls": "count",
    "partition.vertices": "count",
    "partition.graph_s": "s",
    "partition.edge_cut": "count",
    "plum.self_s": "s",
    "plum.checks": "count",
    "plum.rebalances": "count",
    "plum.rebalance_ratio": "ratio",
    "plum.migrated": "count",
    "solver.busy_s": "s",
    "solver.calls": "count",
    "models.setup_s": "s",
    "models.mpi_probes": "count",
    "models.mpi_fast_match_ratio": "ratio",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.cohorts": "count",
    "sim.timer_calls": "count",
    "sim.zero_lane_ratio": "ratio",
    "sim.host_ns_per_event": "ns",
    "machine.build_s": "s",
    "machine.messages": "count",
    "machine.bytes": "bytes",
    "machine.dir_transactions": "count",
    "machine.miss_ratio": "ratio",
    "machine.timer_transfer_ratio": "ratio",
    "faults.injected": "count",
    "faults.retries": "count",
    "serving.key_s": "s",
    "serving.gets": "count",
    "serving.get_s": "s",
    "serving.hit_ratio": "ratio",
    "serving.puts": "count",
    "serving.put_s": "s",
    "serving.pool_s": "s",
    "serving.worker_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
}

#: per-layer metrics that are exact counts (must repeat across passes)
COUNT_METRICS = [k for k, u in PER_LAYER_UNITS.items() if u in ("count", "bytes")] + [
    "plum.rebalance_ratio",
    "models.mpi_fast_match_ratio",
    "sim.zero_lane_ratio",
    "machine.miss_ratio",
    "machine.timer_transfer_ratio",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: Dict[str, Dict[str, float]], store_counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (setup and trace.* excluded).

    ``store_counts`` holds the result store's own ``hits``/``misses``/
    ``puts`` deltas over the pass (zeros when no store was used).
    """
    busy = defaultdict(float, snap["busy"])
    self_s = defaultdict(float, snap["self_s"])
    calls = defaultdict(int, snap["calls"])
    fn_s = defaultdict(float, snap["fn_s"])
    c = defaultdict(float, snap["counts"])
    gets = store_counts.get("hits", 0) + store_counts.get("misses", 0)
    return {
        "apps.build_s": busy["apps"],
        "apps.builds": c["apps.builds"],
        "apps.self_s": self_s["apps"],
        "mesh.busy_s": busy["mesh"],
        "mesh.calls": calls["mesh"],
        "mesh.elements": c["mesh.elements"],
        "partition.busy_s": busy["partition"],
        "partition.calls": calls["partition"],
        "partition.vertices": c["partition.vertices"],
        "partition.graph_s": fn_s["mesh_dual_graph"],
        "partition.edge_cut": c["partition.edge_cut"],
        "plum.self_s": self_s["plum"],
        "plum.checks": c["plum.checks"],
        "plum.rebalances": c["plum.rebalances"],
        "plum.rebalance_ratio": _ratio(c["plum.rebalances"], c["plum.checks"]),
        "plum.migrated": c["plum.migrated"],
        "solver.busy_s": busy["solver"],
        "solver.calls": calls["solver"],
        "models.setup_s": busy["models"],
        "models.mpi_probes": c["models.mpi_probes"],
        "models.mpi_fast_match_ratio": _ratio(c["models.mpi_fast_matches"], c["models.mpi_probes"]),
        "sim.run_s": busy["sim"],
        "sim.events": c["sim.events"],
        "sim.cohorts": c["sim.cohorts"],
        "sim.timer_calls": c["sim.timer_calls"],
        "sim.zero_lane_ratio": _ratio(c["sim.zero_lane_hits"], c["sim.events"]),
        "sim.host_ns_per_event": _ratio(busy["sim"] * 1e9, c["sim.events"]),
        "machine.build_s": busy["machine"],
        "machine.messages": c["machine.messages"],
        "machine.bytes": c["machine.bytes"],
        "machine.dir_transactions": c["machine.dir_transactions"],
        "machine.miss_ratio": _ratio(c["machine.misses"], c["machine.misses"] + c["machine.l2_hits"]),
        "machine.timer_transfer_ratio": _ratio(c["machine.timer_transfers"], c["machine.messages"]),
        "faults.injected": c["faults.injected"],
        "faults.retries": c["faults.retries"],
        "serving.key_s": fn_s["signature"] + fn_s["cache_key"],
        "serving.gets": gets,
        "serving.get_s": fn_s["store_get"],
        "serving.hit_ratio": _ratio(store_counts.get("hits", 0), gets),
        "serving.puts": store_counts.get("puts", 0),
        "serving.put_s": fn_s["store_put"],
        "serving.pool_s": fn_s["run_tasks"],
        "serving.worker_s": fn_s["worker"],
    }
