"""One fresh benchmark process: a campaign run, or a traced ``repro serve``.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; never imported by it. A campaign process prints one JSON line.
This one runs the whole grid of one master seed::

    python3 perfbench/child.py campaign --workload weighted --seed 0 \\
        --work DIR [--trace]

and with ``--seeds 0,1`` instead of ``--seed`` it runs one timing round:
the grid of each master seed, in slices. ``--setup-only`` stops once set
up.

``ready`` in that line is ``time.monotonic()`` once the imports, the grid
and the aggregator are built, so the parent can take set-up time from its
own clock at spawn. ``serve`` runs the CLI's ``repro serve`` with the
tracer installed and writes the trace when the server stops.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (sibling module; no repro imports)


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def record_point_times(times: list[tuple[str, float]]) -> None:
    """Collect the engine's own per-point ``elapsed`` as points complete.

    ``stream_campaign`` hands every completed batch of ``(spec, ok,
    result, elapsed)`` to the callback it passes ``execute_points``; the
    wrapper copies each point's canonical spec and elapsed seconds there,
    in this process, whether the points ran inline or in pool workers.
    """
    import repro.runner.stream as stream

    execute = stream.execute_points

    @functools.wraps(execute)
    def recording(todo, workers, master_seed, finish_batch, *args, **kwargs):
        def finish(batch):
            times.extend((spec.canonical, t) for spec, _, _, t in batch)
            return finish_batch(batch)

        return execute(todo, workers, master_seed, finish, *args, **kwargs)

    stream.execute_points = recording


def _setup(args: argparse.Namespace):
    """Imports, the grid and the aggregator: what a campaign pays at start."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import repro.cli  # noqa: F401  (what `repro campaign` pays at start)
    from repro.runner.presets import get_preset

    t2 = time.perf_counter()
    spec = workloads.CAMPAIGNS[args.workload]
    preset = get_preset(spec["preset"])
    specs = preset.specs(spec["axes"])
    preset.aggregator()
    return spec, preset, specs, {
        "ready": time.monotonic(),
        "import_numpy_s": t1 - t0,
        "import_repro_s": t2 - t1,
    }


def _pinned_digest(workload: str, state: dict) -> "str | None":
    """sha256 of the aggregate restricted to the pinned metric keys."""
    from repro.runner.spec import canonical_json

    keys = workloads.PIN_KEYS[workload]
    pinned = {k: state[k] for k in keys if k in state}
    if len(pinned) != len(keys):
        return None
    return hashlib.sha256(canonical_json(pinned).encode("utf-8")).hexdigest()


def _tally(results) -> tuple[dict, dict]:
    outcomes = {"folded": 0, "infeasible": 0, "failed": 0}
    reasons: dict[str, int] = {}
    for outcome in results:
        kind = workloads.classify(outcome)
        outcomes[kind] += 1
        if kind != "folded":
            reason = outcome["error"].split(":", 1)[0]
            reasons[reason] = reasons.get(reason, 0) + 1
    return outcomes, reasons


def run_campaign(args: argparse.Namespace) -> dict:
    """The whole preset grid of one master seed as one campaign."""
    spec, preset, specs, out = _setup(args)
    from repro import telemetry
    from repro.runner.stream import stream_campaign

    aggregator = preset.aggregator()
    checked = workloads.selftest() if args.selftest else None

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(Path(args.work) / "trace")
        tracing.install(tracer)

    point_times: list[float] = []
    record_point_times(point_times)
    work = Path(args.work)
    kwargs = {}
    if spec["state"]:
        kwargs["state_path"] = work / "state.json"
        kwargs["cache_dir"] = work / "cache"
    self_cpu0 = _cpu_s(resource.RUSAGE_SELF)
    pool_cpu0 = _cpu_s(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    result = stream_campaign(
        specs,
        aggregator,
        workers=spec["workers"],
        master_seed=args.seed,
        on_error=preset.on_error,
        collect=True,
        **kwargs,
    )
    report = preset.render(result.aggregator)
    wall = time.perf_counter() - start
    coordinator_cpu = _cpu_s(resource.RUSAGE_SELF) - self_cpu0
    pool_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - pool_cpu0

    outcomes, reasons = _tally(result.results)
    out.update(
        {
            "wall": wall,
            "points": len(result.results),
            "point_ms": [t * 1e3 for _, t in point_times],
            "outcomes": outcomes,
            "reasons": reasons,
            "digest": hashlib.sha256(
                result.aggregate_json().encode("utf-8")
            ).hexdigest(),
            "pinned_digest": _pinned_digest(
                args.workload, result.aggregator.state_dict()
            ),
            "report_bytes": len(report or ""),
            "peak_rss_mb": max(
                _rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN)
            ),
            "telemetry_enabled": telemetry.enabled(),
            "batches": result.stats.batches,
            "kernel_fast": result.stats.kernel_fast,
            "kernel_fallback": result.stats.kernel_fallback,
            "coordinator_cpu_s": coordinator_cpu,
            "pool_cpu_s": pool_cpu,
            "workers": spec["workers"],
            "state_kb": len(result.aggregate_json()) / 1024.0,
            "selftest": checked,
        }
    )
    if tracer is not None:
        tracer.dump()
    return out


def run_slices(args: argparse.Namespace) -> dict:
    """One timing round: every slice of every master seed, once each.

    A slice is a campaign (``stream_campaign`` plus ``render``) over the
    grid's points of a few ``rep`` values; the slices of a master seed
    cover its whole grid, and their aggregates, merged, must equal the
    whole grid's. An untimed campaign over the first few points of the
    first slice runs first, so no timed slice pays the first calls. The
    reference kernel runs just before each slice.
    """
    spec, preset, specs, out = _setup(args)
    from repro import telemetry
    from repro.runner.spec import canonical_json
    from repro.runner.stream import stream_campaign

    reps = spec["axes"]["rep"]
    step = spec["slice_reps"]
    slices = [
        preset.specs({**spec["axes"], "rep": reps[i : i + step]})
        for i in range(0, len(reps), step)
    ]
    covered = sorted(s.canonical for part in slices for s in part)
    if covered != sorted(s.canonical for s in specs):
        raise SystemExit("the slices do not cover the grid exactly once")

    point_times: list[tuple[str, float]] = []
    record_point_times(point_times)
    work = Path(args.work)

    def campaign(part, master_seed, name):
        kwargs = {}
        if spec["state"]:
            kwargs["state_path"] = work / name / "state.json"
            kwargs["cache_dir"] = work / name / "cache"
        start = time.perf_counter()
        result = stream_campaign(
            part,
            preset.aggregator(),
            workers=spec["workers"],
            master_seed=master_seed,
            on_error=preset.on_error,
            collect=True,
            **kwargs,
        )
        report = preset.render(result.aggregator)
        return time.perf_counter() - start, result, report

    seeds = [int(s) for s in args.seeds.split(",")]
    campaign(slices[0][: spec["workers"] * 4], seeds[0], "warm")
    inputs = []
    for master_seed in seeds:
        merged = None
        results = []
        timed = []
        for index, part in enumerate(slices):
            kernel_s = workloads.reference_kernel()
            point_times.clear()
            wall, result, report = campaign(part, master_seed, f"{master_seed}-{index}")
            elapsed = dict(point_times)
            merged = (
                result.aggregator
                if merged is None
                else merged.merge(result.aggregator)
            )
            results.extend(result.results)
            timed.append(
                {
                    "wall": wall,
                    "kernel_s": kernel_s,
                    # In the slice's grid order, so rounds line up.
                    "point_ms": [elapsed[s.canonical] * 1e3 for s in part],
                    "report_bytes": len(report or ""),
                }
            )
        outcomes, reasons = _tally(results)
        state = merged.state_dict()
        inputs.append(
            {
                "master_seed": master_seed,
                "points": len(results),
                "slices": timed,
                "outcomes": outcomes,
                "reasons": reasons,
                "digest": hashlib.sha256(
                    canonical_json(state).encode("utf-8")
                ).hexdigest(),
            }
        )
    out.update(
        {
            "inputs": inputs,
            "peak_rss_mb": max(
                _rss_mb(resource.RUSAGE_SELF), _rss_mb(resource.RUSAGE_CHILDREN)
            ),
            "telemetry_enabled": telemetry.enabled(),
        }
    )
    return out


def run_serve(args: argparse.Namespace, serve_argv: list[str]) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import repro.cli

    t2 = time.perf_counter()
    import tracer as tracing

    tracer = tracing.Tracer(Path(args.work) / "trace")
    tracing.install(tracer)
    tracer.meta.update(import_numpy_s=t1 - t0, import_repro_s=t2 - t1)
    try:
        return repro.cli.main(["serve", *serve_argv])
    finally:
        tracer.dump()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("campaign", "serve"))
    parser.add_argument("--workload", default="weighted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds", help="comma-separated master seeds: one timing round of slices"
    )
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true", help="stop once set up"
    )
    args, rest = parser.parse_known_args()
    if args.mode == "serve":
        return run_serve(args, [a for a in rest if a != "--"])
    if args.setup_only:
        out = _setup(args)[-1]
    else:
        out = run_slices(args) if args.seeds else run_campaign(args)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
