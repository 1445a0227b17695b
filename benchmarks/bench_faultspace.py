"""Faultspace throughput: dependability points/sec through the pool engine.

A faultspace point is the heaviest campaign point in the repository — task
set generation, partitioning, platform design, scenario fault generation
and a full multicore simulation — so this benchmark starts the perf
trajectory for fault-campaign throughput: points/sec of a fixed
dependability grid at several worker counts, verifying along the way that
every run folds to the byte-identical aggregate (the determinism contract
is free to check here and never acceptable to lose).

Standalone on purpose (no pytest-benchmark dependency), so CI can run it
as a smoke step and the points/sec table lands in the job log:

    PYTHONPATH=src python benchmarks/bench_faultspace.py --smoke

It also audits the design-period search over the same grid, in process
with the fast kernels on: the ``SystemCurve.lhs`` (``G(P)``) calls of each
``FeasibleRegion.max_feasible_period`` and ``_auto_p_max``. The counts are
deterministic, so they are gated exactly; wall-clock is reported only.

Exit code is non-zero when any run's aggregate bytes diverge from the
single-worker run, or when a period search makes more ``G`` calls than
:data:`SEARCH_CALL_LIMITS` allows.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import time
from typing import Iterator

from repro.analysis import kernels
from repro.core import FeasibleRegion
from repro.core.integration import SystemCurve
from repro.experiments.faultspace import faultspace_aggregator, faultspace_specs
from repro.runner import stream_campaign

from bench_util import write_bench_json

#: Cheap-but-real dependability axes: small generated sets, short horizons,
#: one scenario per arrival-process family.
BENCH_AXES = {
    "u_total": [0.8],
    "rate": [0.02, 0.05],
    "scenario": ["poisson", "bursty", "intermittent", "permanent"],
    "n": [6],
    "cycles": [10],
}

WORKER_COUNTS = (1, 2, 4)


def run_once(reps: int, workers: int) -> tuple[float, float, int, str]:
    """One sweep; returns (points/sec, elapsed, points, aggregate bytes)."""
    specs = faultspace_specs({**BENCH_AXES, "rep": list(range(reps))})
    aggregator = faultspace_aggregator()
    start = time.perf_counter()
    result = stream_campaign(
        specs, aggregator, workers=workers, master_seed=5, on_error="store"
    )
    elapsed = time.perf_counter() - start
    return len(specs) / elapsed, elapsed, len(specs), result.aggregate_json()


#: Most ``G`` calls one period search may make: a tree bisection evaluates
#: ~7 steps per call after the grid sweep, and the sweep end is usually
#: found within the first 8 doublings.
SEARCH_CALL_LIMITS = {"max_feasible_period": 8, "_auto_p_max": 2}


@contextlib.contextmanager
def design_search_audit() -> Iterator[dict[str, list[int]]]:
    """Record the ``SystemCurve.lhs`` calls of each outermost period search
    (a widened region's nested ``max_feasible_period`` counts toward its
    caller)."""
    calls = [0]
    audit: dict[str, list[int]] = {name: [] for name in SEARCH_CALL_LIMITS}
    active = dict.fromkeys(SEARCH_CALL_LIMITS, 0)
    real_lhs = SystemCurve.lhs
    real = {name: getattr(FeasibleRegion, name) for name in audit}

    def counting_lhs(self, periods):
        calls[0] += 1
        return real_lhs(self, periods)

    def audited(name):
        def search(self, *args, **kwargs):
            active[name] += 1
            before = calls[0]
            try:
                return real[name](self, *args, **kwargs)
            finally:
                active[name] -= 1
                if not active[name]:
                    audit[name].append(calls[0] - before)
        return search

    SystemCurve.lhs = counting_lhs
    for name in audit:
        setattr(FeasibleRegion, name, audited(name))
    try:
        yield audit
    finally:
        SystemCurve.lhs = real_lhs
        for name, fn in real.items():
            setattr(FeasibleRegion, name, fn)


def design_search_cost(reps: int) -> tuple[bool, dict[str, dict[str, float]]]:
    """Audit the grid's period searches inline; ``(within limits, counts)``."""
    specs = faultspace_specs({**BENCH_AXES, "rep": list(range(reps))})
    with kernels.kernels_forced(True), design_search_audit() as audit:
        stream_campaign(
            specs, faultspace_aggregator(), workers=1, master_seed=5,
            on_error="store",
        )
    within = True
    counts: dict[str, dict[str, float]] = {}
    print(f"design-period search cost over {len(specs)} points (G calls per search)")
    print(f"{'search':>20}  {'searches':>8}  {'median':>6}  {'max':>4}  {'limit':>5}")
    for name, limit in SEARCH_CALL_LIMITS.items():
        per_search = audit[name] or [0]
        over = sum(n > limit for n in per_search)
        within = within and not over
        counts[name] = {
            "searches": len(audit[name]),
            "lhs_calls_median": statistics.median(per_search),
            "lhs_calls_max": max(per_search),
            "limit": limit,
            "over_limit": over,
        }
        print(
            f"{name:>20}  {len(audit[name]):>8}  "
            f"{statistics.median(per_search):>6g}  {max(per_search):>4}  {limit:>5}"
        )
    return within, counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reps", type=int, default=10,
        help="replications per grid cell (default: 10)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 2 reps, same checks, small wall-clock",
    )
    args = parser.parse_args(argv)
    reps = 2 if args.smoke else args.reps

    print(f"faultspace throughput ({reps} reps/cell)")
    print(f"{'workers':>8}  {'points':>7}  {'elapsed':>8}  {'points/sec':>10}")
    baseline: str | None = None
    diverged = False
    rates: dict[str, float] = {}
    for workers in WORKER_COUNTS:
        pps, elapsed, points, agg = run_once(reps, workers)
        if baseline is None:
            baseline = agg
        identical = agg == baseline
        diverged = diverged or not identical
        tag = "" if identical else "  AGGREGATE BYTES DIVERGED"
        rates[str(workers)] = round(pps, 1)
        print(
            f"{workers:>8}  {points:>7}  {elapsed:>7.2f}s  {pps:>10.1f}{tag}"
        )
    within, search = design_search_cost(reps)
    write_bench_json(
        "faultspace",
        config={"reps": reps, "smoke": args.smoke},
        points_per_sec_by_workers=rates,
        aggregates_identical=not diverged,
        design_search=search,
        design_search_within_limits=within,
    )
    if diverged:
        print("FAIL: aggregates are not bit-identical across worker counts")
    else:
        print("aggregates bit-identical across all worker counts")
    if not within:
        print("FAIL: a period search made more G(P) calls than allowed")
    return 1 if diverged or not within else 0


if __name__ == "__main__":
    sys.exit(main())
