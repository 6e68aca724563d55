"""Outside-in layer tracer for the end-to-end benchmark.

The program under test has no stage timers of its own, so a traced run
wraps the public functions and methods of each layer from outside:

* a method is replaced on its class (``Class.method``);
* a function is replaced on its defining module *and* on every loaded
  ``repro`` module whose global binding is the same object, because a
  consumer that did ``from ..x import f`` calls its own binding.

Every wrapper pushes a frame on a thread-local stack, so a layer's self
time is its inclusive time minus the time of wrapped layers it called.
Calls and self time are aggregated per call path (the tuple of layer
names on the stack) in memory; :meth:`Tracer.layer_totals` folds the
paths into per-layer totals.  :meth:`Tracer.uninstall` puts back every
attribute it replaced.

Usage::

    tracer = Tracer(LAYERS)
    tracer.install()
    try:
        run_workload()
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Layer:
    """One traced layer: its metric name and the callables behind it.

    ``targets`` are ``"module:attr"`` (a function) or
    ``"module:Class.method"`` strings; ``"module:Class.*"`` takes every
    public method the class itself defines.  ``measure`` optionally maps
    ``(args, kwargs, result)`` to an amount added to the layer's
    ``amount`` counter (rows read, batch size, Ptile hits, ...).
    """

    name: str
    targets: tuple[str, ...]
    measure: Callable[[tuple, dict, Any], float] | None = None


def _match_hit(args, kwargs, result) -> float:
    return 0.0 if result is None else 1.0


def _entries_len(args, kwargs, result) -> float:
    entries = args[2] if len(args) > 2 else kwargs["entries"]
    return float(len(entries))


def _batch_rows(args, kwargs, result) -> float:
    sizes = args[1] if len(args) > 1 else kwargs["sizes"]
    return float(sizes.shape[0])


def _requests_len(args, kwargs, result) -> float:
    requests = args[1] if len(args) > 1 else kwargs["requests"]
    return float(len(requests))


LAYERS: tuple[Layer, ...] = (
    # content preparation
    Layer("experiments.setup.make_setup",
          ("repro.experiments.setup:make_setup",)),
    Layer("experiments.setup.prepare",
          ("repro.experiments.setup:ExperimentSetup.prepare",)),
    Layer("ptile.build_video_ptiles",
          ("repro.ptile.construction:build_video_ptiles",)),
    Layer("streaming.ftile.build_video_ftiles",
          ("repro.streaming.ftile:build_video_ftiles",)),
    # results I/O
    Layer("experiments.artifacts.sweep_context_digest",
          ("repro.experiments.artifacts:sweep_context_digest",)),
    Layer("experiments.artifacts.get_results_batch",
          ("repro.experiments.artifacts:ShardedResultsStore.get_results_batch",),
          _entries_len),
    Layer("experiments.artifacts.merge_shard",
          ("repro.experiments.artifacts:ShardedResultsStore.merge_shard",)),
    # session layers
    Layer("video.SegmentManifest.size",
          ("repro.video.segments:SegmentManifest.tile_size_mbit",
           "repro.video.segments:SegmentManifest.tiles_size_mbit",
           "repro.video.segments:SegmentManifest.region_size_mbit")),
    Layer("traces.HeadTrace.viewport_at",
          ("repro.traces.head_movement:HeadTrace.viewport_at",)),
    Layer("traces.HeadTrace.speed_quantile_in",
          ("repro.traces.head_movement:HeadTrace.speed_quantile_in",)),
    Layer("prediction.ViewportPredictor.observe",
          ("repro.prediction.viewport:ViewportPredictor.observe",)),
    Layer("prediction.ViewportPredictor.predict_viewport",
          ("repro.prediction.viewport:ViewportPredictor.predict_viewport",)),
    Layer("prediction.ViewportPredictor.recent_speed_deg_s",
          ("repro.prediction.viewport:ViewportPredictor.recent_speed_deg_s",)),
    Layer("streaming.abr.ThroughputBufferABR.choose_quality",
          ("repro.streaming.abr:ThroughputBufferABR.choose_quality",)),
    Layer("streaming.schemes.CtileScheme.plan",
          ("repro.streaming.schemes:CtileScheme.plan",)),
    Layer("streaming.schemes.FtileScheme.plan",
          ("repro.streaming.schemes:FtileScheme.plan",)),
    Layer("streaming.schemes.NontileScheme.plan",
          ("repro.streaming.schemes:NontileScheme.plan",)),
    Layer("streaming.schemes.PtileScheme.plan",
          ("repro.streaming.schemes:PtileScheme.plan",)),
    Layer("core.OursScheme.plan", ("repro.core.controller:OursScheme.plan",)),
    Layer("traces.NetworkTrace.download_time",
          ("repro.traces.network:NetworkTrace.download_time",)),
    Layer("streaming.run_session", ("repro.streaming.session:run_session",)),
    Layer("experiments.runner.run_job",
          ("repro.experiments.runner:SweepContext.run_job",)),
    # controls: per-segment accounting no planned change should move
    Layer("prediction.HarmonicMeanEstimator",
          ("repro.prediction.bandwidth:HarmonicMeanEstimator.*",)),
    Layer("streaming.PlaybackBuffer.advance",
          ("repro.streaming.buffer:PlaybackBuffer.advance",)),
    Layer("power.EnergyModel", ("repro.power.energy:EnergyModel.*",)),
    Layer("qoe.QoEModel.segment_qoe",
          ("repro.qoe.metrics:QoEModel.segment_qoe",)),
    Layer("qoe.QualityModel.qo", ("repro.qoe.quality:QualityModel.qo",)),
    # planning
    Layer("ptile.SegmentPtiles.match",
          ("repro.ptile.construction:SegmentPtiles.match",), _match_hit),
    Layer("core.PlanTables.window",
          ("repro.core.plan_tables:PlanTables.window",)),
    Layer("core.PlanTables.sizes_for",
          ("repro.core.plan_tables:PlanTables.sizes_for",)),
    Layer("core.EnergyQoEMpc.choose",
          ("repro.core.optimizer:EnergyQoEMpc.choose",)),
    # population engine
    Layer("streaming.PopulationEngine.init",
          ("repro.streaming.population:PopulationEngine.__init__",)),
    Layer("streaming.PopulationEngine.run",
          ("repro.streaming.population:PopulationEngine.run",)),
    # decision service
    Layer("core.EnergyQoEMpc.choose_batch",
          ("repro.core.optimizer:EnergyQoEMpc.choose_batch",), _batch_rows),
    Layer("serving.planner.plan_batch",
          ("repro.serving.planner:VideoPlanner.plan_batch",), _requests_len),
    Layer("serving.protocol.decode_request_line",
          ("repro.serving.protocol:decode_request_line",)),
    Layer("serving.protocol.encode_response_line",
          ("repro.serving.protocol:encode_response_line",)),
)


def import_all(package: str = "repro") -> None:
    """Import every submodule of ``package``.

    Installing wrappers patches function bindings in *loaded* modules
    only; a consumer imported later would bind the wrapper itself and
    keep it after :meth:`Tracer.uninstall`.  Importing everything first
    closes that gap.
    """
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=f"{package}."):
        importlib.import_module(info.name)


class Tracer:
    """Call-path aggregating tracer over a fixed set of layers."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS):
        self.layers = layers
        # path (tuple of layer names) -> [calls, self_s]
        self.paths: dict[tuple[str, ...], list] = {}
        self.amounts: dict[str, float] = {}
        self.wall_s = 0.0
        self._local = threading.local()
        # (owner, attribute, original value), in installation order
        self._patches: list[tuple[Any, str, Any]] = []
        self._started: float | None = None

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.name
        local = self._local
        paths = self.paths
        amounts = self.amounts
        measure = layer.measure
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = [[(), 0.0]]
            parent = stack[-1]
            frame = [parent[0] + (name,), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                entry = paths.get(frame[0])
                if entry is None:
                    entry = paths[frame[0]] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
            if measure is not None:
                amounts[name] = amounts.get(name, 0.0) + measure(
                    args, kwargs, result
                )
            return result

        traced.__repro_traced__ = fn
        return traced

    def _targets(self, spec: str) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` triples one spec resolves to."""
        module_name, _, attr = spec.partition(":")
        module = importlib.import_module(module_name)
        if "." not in attr:
            original = getattr(module, attr)
            return [
                (mod, attr, original)
                for name, mod in sorted(sys.modules.items())
                if (name == "repro" or name.startswith("repro."))
                and mod is not None
                and getattr(mod, attr, None) is original
            ]
        class_name, _, method = attr.partition(".")
        cls = getattr(module, class_name)
        if method == "*":
            methods = [
                key for key, value in vars(cls).items()
                if not key.startswith("_") and callable(value)
            ]
        else:
            if method not in vars(cls):
                raise AttributeError(
                    f"{class_name}.{method} is not defined on the class itself"
                )
            methods = [method]
        return [(cls, key, vars(cls)[key]) for key in methods]

    def install(self) -> None:
        """Replace every target with its traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import_all()
        wrapped: dict[int, Callable] = {}
        try:
            for layer in self.layers:
                for spec in layer.targets:
                    for owner, attr, original in self._targets(spec):
                        if isinstance(original, (staticmethod, classmethod)):
                            raise TypeError(
                                f"{spec}: descriptors are not traced"
                            )
                        wrapper = wrapped.get(id(original))
                        if wrapper is None:
                            wrapper = wrapped[id(original)] = self._wrap(
                                layer, original
                            )
                        self._patches.append((owner, attr, original))
                        setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise
        self._started = time.perf_counter()

    def uninstall(self) -> None:
        """Restore every replaced attribute (reverse order)."""
        if self._started is not None:
            self.wall_s += time.perf_counter() - self._started
            self._started = None
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def targets(self) -> list[tuple[Any, str, Any]]:
        """Every ``(owner, attribute, current value)`` the layers resolve
        to (for restoration checks)."""
        import_all()
        return [
            target
            for layer in self.layers
            for spec in layer.targets
            for target in self._targets(spec)
        ]

    # -- results --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "self_s", "amount"}}`` for every layer."""
        totals = {
            layer.name: {"calls": 0, "self_s": 0.0, "amount": 0.0}
            for layer in self.layers
        }
        for path, (calls, self_s) in self.paths.items():
            entry = totals[path[-1]]
            entry["calls"] += calls
            entry["self_s"] += self_s
        for name, amount in self.amounts.items():
            totals[name]["amount"] = amount
        return totals

    def top_paths(self, limit: int = 25) -> list[dict[str, Any]]:
        """The call paths with the most self time."""
        ranked = sorted(self.paths.items(), key=lambda kv: -kv[1][1])
        return [
            {"path": " > ".join(path), "calls": calls, "self_s": self_s}
            for path, (calls, self_s) in ranked[:limit]
        ]

    def dump(self) -> dict[str, Any]:
        """JSON-ready totals, top paths and traced wall time."""
        return {
            "wall_s": self.wall_s,
            "layers": self.layer_totals(),
            "top_paths": self.top_paths(),
        }
