"""Outside-in span tracer for the traced benchmark runs.

The program's source is never edited: :func:`install` wraps the public
entry points of each layer (module functions and class methods) from
here, replacing every reference to the original object held by a loaded
``repro`` module. Spans (name, start, end, parent) and counts are kept in
memory and written out once, when the process ends; a forked pool worker
starts a fresh record and writes its own file at exit.

A span's self time is its duration minus the time its wrapped children
cover. :func:`summarize` turns the records of all processes of one run
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import sys
import time
from multiprocessing import util as mp_util
from pathlib import Path

#: Span names that own time for the layer attribution: a wrapped call
#: counts toward the nearest enclosing one of these (itself included), so
#: ``minq`` builds under ``admission`` are admission time and under
#: ``design`` design time, matching the coarse phases ``repro profile``
#: reports.
LAYERS = (
    "generate",
    "partition",
    "design",
    "admission",
    "sim.online",
    "sim.uniproc",
    "scenario",
    "fold",
)

#: Per-kind render spans of the query layer (server misses).
QUERY_KINDS = ("report", "summary", "metrics", "curve", "categorical")


class Tracer:
    """Spans and counts of one process, kept in memory until exit."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()
        mp_util.register_after_fork(self, Tracer._forked)

    def _reset(self) -> None:
        self.pid = os.getpid()
        #: (id, parent id or -1, name, start, end, self seconds)
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.counts: dict[str, int] = {}
        #: Free-form values written with the trace (e.g. import times).
        self.meta: dict[str, float] = {}
        self._stack: list[list] = []
        self._next_id = 0

    def _forked(self) -> None:
        # A pool worker (multiprocessing runs this after clearing the
        # parent's finalizers): drop the parent's records and write this
        # process's own file when the worker shuts down.
        self._reset()
        mp_util.Finalize(None, self.dump, exitpriority=100)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, fn, name, infeasible: "tuple[type, str] | None" = None):
        """``fn`` wrapped in a span; ``name`` may be a callable of the args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if infeasible is not None and isinstance(exc, infeasible[0]):
                    tracer.count(infeasible[1])
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (
                        frame[0],
                        parent[0] if parent is not None else -1,
                        name(*args, **kwargs) if callable(name) else name,
                        start,
                        end,
                        duration - frame[1],
                    )
                )

        return traced

    def counter(self, fn, name: str, when=None):
        """``fn`` wrapped to count its calls (only those ``when()`` allows)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if when is None or when():
                tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def items(self, fn, name: str):
        """Generator ``fn`` wrapped to count the items it yields."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tracer.count(name)
                yield item

        return counted

    def dump(self) -> Path:
        """Write this process's spans and counts as NDJSON; returns the path."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"trace-{self.pid}.ndjson"
        with open(path, "w") as fh:
            fh.write(json.dumps(
                    {"pid": self.pid, "counts": self.counts, "meta": self.meta}
                ) + "\n")
            for sid, parent, name, start, end, self_s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "self": self_s,
                        }
                    )
                    + "\n"
                )
        return path


def _replace_everywhere(original, replacement) -> int:
    """Point every ``repro`` module global bound to ``original`` elsewhere."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                replaced += 1
    return replaced


def _wrap_function(module_name: str, attr: str, make) -> None:
    original = getattr(sys.modules[module_name], attr)
    if _replace_everywhere(original, make(original)) == 0:
        raise RuntimeError(f"{module_name}.{attr} is referenced nowhere")


def _wrap_method(cls: type, attr: str, make) -> None:
    setattr(cls, attr, make(cls.__dict__[attr]))


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point of the loaded program."""
    import importlib

    for name in (
        "repro.cli",
        "repro.runner.engine",
        "repro.runner.stream",
        "repro.runner.cache",
        "repro.runner.aggregate",
        "repro.generators.taskset_gen",
        "repro.partition.multimode",
        "repro.core.design",
        "repro.core.region",
        "repro.core.integration",
        "repro.core.minq",
        "repro.core.admission",
        "repro.analysis.edf",
        "repro.analysis.fp",
        "repro.analysis.workload",
        "repro.analysis.points",
        "repro.analysis.kernels",
        "repro.sim.events",
        "repro.sim.online",
        "repro.sim.uniproc",
        "repro.dependability.scenarios",
        "repro.telemetry",
        "repro.telemetry.core",
        "repro.reporting.query",
        "repro.server.app",
        "repro.experiments.weighted",
        "repro.experiments.faultspace",
        "repro.experiments.online",
    ):
        importlib.import_module(name)
    mods = sys.modules
    from repro.core.design import DesignError
    from repro.partition.binpack import PartitionError

    def span(name, infeasible=None):
        return lambda fn: tracer.span(fn, name, infeasible)

    _wrap_function("repro.runner.engine", "evaluate_point", span("point"))
    _wrap_function(
        "repro.generators.taskset_gen", "generate_mixed_taskset", span("generate")
    )
    _wrap_function(
        "repro.partition.multimode",
        "partition_by_modes",
        span("partition", (PartitionError, "partition.infeasible")),
    )
    _wrap_function(
        "repro.core.design",
        "design_platform",
        span("design", (DesignError, "design.infeasible")),
    )
    region = mods["repro.core.region"].FeasibleRegion
    _wrap_method(
        region,
        "__init__",
        lambda fn: tracer.counter(tracer.span(fn, "region"), "region.builds"),
    )
    for attr in (
        "sweep",
        "max_feasible_period",
        "max_admissible_overhead",
        "max_slack_ratio",
        "is_feasible",
        "min_quanta",
        "lhs",
    ):
        _wrap_method(region, attr, span("region"))
    system = mods["repro.core.integration"].SystemCurve
    for attr in ("__init__", "mode_minq", "lhs", "min_quanta"):
        _wrap_method(system, attr, span("region"))
    curve = mods["repro.core.minq"].QuantumCurve
    _wrap_method(
        curve,
        "__init__",
        lambda fn: tracer.counter(
            tracer.span(fn, "minq.build"), "minq.curve_builds"
        ),
    )
    for attr in ("evaluate", "detailed"):
        _wrap_method(curve, attr, span("minq"))
    for module_name, attr in (
        ("repro.analysis.edf", "edf_demand_points"),
        ("repro.analysis.edf", "demand_bound_array"),
        ("repro.analysis.edf", "edf_schedulable_supply"),
        ("repro.analysis.fp", "fp_schedulable_supply"),
        ("repro.analysis.workload", "fp_workload_array"),
        ("repro.analysis.points", "scheduling_points"),
        ("repro.analysis.kernels", "binding_hull"),
    ):
        _wrap_function(module_name, attr, span("analysis"))
    admission = mods["repro.core.admission"].AdmissionController

    def admit(fn):
        traced = tracer.span(fn, "admission")

        @functools.wraps(fn)
        def try_admit(*args, **kwargs):
            decision = traced(*args, **kwargs)
            tracer.count("admission.try_admit.calls")
            if decision.admitted:
                tracer.count("admission.accepted")
            return decision

        return try_admit

    _wrap_method(admission, "try_admit", admit)
    for attr in ("kill_processor", "remove"):
        _wrap_method(admission, attr, span("admission"))
    _wrap_method(mods["repro.sim.online"].OnlineSim, "run", span("sim.online"))
    queue = mods["repro.sim.events"].EventQueue
    _wrap_method(
        queue, "pop", lambda fn: tracer.counter(fn, "sim.events.dispatched")
    )
    _wrap_method(
        queue, "drain", lambda fn: tracer.items(fn, "sim.events.dispatched")
    )
    _wrap_function("repro.sim.uniproc", "simulate_uniproc", span("sim.uniproc"))
    scenarios = mods["repro.dependability.scenarios"]
    for value in vars(scenarios).values():
        if (
            isinstance(value, type)
            and issubclass(value, scenarios.FaultScenario)
            and "generate" in value.__dict__
        ):
            _wrap_method(value, "generate", span("scenario"))
    _wrap_method(mods["repro.runner.aggregate"].Aggregator, "fold", span("fold"))
    _wrap_function("repro.runner.stream", "save_snapshot", span("snapshot"))
    _wrap_method(
        mods["repro.runner.cache"].ResultCache, "put_many", span("cache.write")
    )
    telemetry_core = mods["repro.telemetry.core"]
    disabled = lambda: telemetry_core.active() is None  # noqa: E731
    for attr in ("count", "span", "gauge"):
        _wrap_function(
            "repro.telemetry.core",
            attr,
            lambda fn: tracer.counter(fn, "telemetry.noop_calls", disabled),
        )
    query = mods["repro.reporting.query"].SnapshotQuery
    _wrap_method(
        query,
        "from_snapshot",
        lambda fn: classmethod(
            tracer.span(fn.__func__, "query.from_snapshot")
        ),
    )
    _wrap_method(
        query,
        "query",
        span(lambda self, kind, **params: f"query.render.{kind}"),
    )


# -- summarizing -------------------------------------------------------------


def load(trace_dir: Path) -> list[tuple[dict, list[dict]]]:
    """Per-process ``(head, spans)`` of every trace file in ``trace_dir``;
    the head holds the process's ``counts`` and ``meta``."""
    processes = []
    for path in sorted(Path(trace_dir).glob("trace-*.ndjson")):
        with open(path) as fh:
            head = json.loads(fh.readline())
            spans = [json.loads(line) for line in fh]
        processes.append((head, spans))
    return processes


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(processes) -> dict[str, float]:
    """Per-layer metrics over every process of one traced run."""
    counts: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    layer_s: dict[str, float] = {name: 0.0 for name in LAYERS}
    layer_s["point_other"] = 0.0
    point_ms: list[float] = []
    builds_in_admission = 0
    render_ms: dict[str, list[float]] = {kind: [] for kind in QUERY_KINDS}
    from_snapshot_ms: list[float] = []
    for head, spans in processes:
        for key, value in head["counts"].items():
            counts[key] = counts.get(key, 0) + value
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            name = s["name"]
            self_by_name[name] = self_by_name.get(name, 0.0) + s["self"]
            duration_ms = (s["end"] - s["start"]) * 1e3
            if name == "point":
                point_ms.append(duration_ms)
            elif name == "query.from_snapshot":
                from_snapshot_ms.append(duration_ms)
            elif name.startswith("query.render."):
                render_ms.setdefault(name[len("query.render."):], []).append(
                    duration_ms
                )
            # Attribute self time to the nearest enclosing layer span.
            names = _lineage(s, by_id)
            owner = next((n for n in names if n in LAYERS), None)
            if owner is not None:
                layer_s[owner] += s["self"]
            elif "point" in names:
                layer_s["point_other"] += s["self"]
            if name == "minq.build" and "admission" in names:
                builds_in_admission += 1
    calls = counts.get("admission.try_admit.calls", 0)
    out = {
        "generate.self_s": self_by_name.get("generate", 0.0),
        "partition.self_s": self_by_name.get("partition", 0.0),
        "partition.infeasible": counts.get("partition.infeasible", 0),
        "design.self_s": self_by_name.get("design", 0.0),
        "design.infeasible": counts.get("design.infeasible", 0),
        "region.builds": counts.get("region.builds", 0),
        "region.self_s": self_by_name.get("region", 0.0),
        "minq.curve_builds": counts.get("minq.curve_builds", 0),
        "minq.self_s": self_by_name.get("minq", 0.0)
        + self_by_name.get("minq.build", 0.0),
        "analysis.self_s": self_by_name.get("analysis", 0.0),
        "admission.try_admit.calls": calls,
        "admission.self_s": self_by_name.get("admission", 0.0),
        "admission.accept_ratio": (
            counts.get("admission.accepted", 0) / calls if calls else 0.0
        ),
        "admission.curve_builds_per_admit": (
            builds_in_admission / calls if calls else 0.0
        ),
        "sim.online.self_s": self_by_name.get("sim.online", 0.0),
        "sim.events.dispatched": counts.get("sim.events.dispatched", 0),
        "sim.uniproc.self_s": self_by_name.get("sim.uniproc", 0.0),
        "scenario.generate_s": self_by_name.get("scenario", 0.0),
        "telemetry.noop_calls": counts.get("telemetry.noop_calls", 0),
        "aggregate.fold_s": self_by_name.get("fold", 0.0),
        "stream.snapshot_s": self_by_name.get("snapshot", 0.0),
        "cache.write_s": self_by_name.get("cache.write", 0.0),
        "point.p50_ms": statistics.median(point_ms) if point_ms else 0.0,
        "point.p99_ms": quantile(point_ms, 0.99),
        "point.max_ms": max(point_ms, default=0.0),
        "query.from_snapshot_ms": (
            statistics.median(from_snapshot_ms) if from_snapshot_ms else 0.0
        ),
    }
    for kind in QUERY_KINDS:
        samples = render_ms.get(kind, [])
        out[f"query.render_ms.{kind}"] = (
            statistics.median(samples) if samples else 0.0
        )
    for name, seconds in layer_s.items():
        out[f"layer.{name.replace('.', '_')}_s"] = seconds
    return out


def _lineage(span: dict, by_id: dict) -> list[str]:
    """Names of ``span`` and its wrapped ancestors, innermost first."""
    names = []
    node = span
    while node is not None:
        names.append(node["name"])
        node = by_id.get(node["parent"])
    return names


def ranking(metrics: dict[str, float]) -> list[str]:
    """Layer names by attributed time, largest first."""
    layers = [
        (metrics[f"layer.{name.replace('.', '_')}_s"], name) for name in LAYERS
    ]
    return [name for seconds, name in sorted(layers, reverse=True) if seconds > 0]
