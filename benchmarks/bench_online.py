"""Event-dispatch throughput: the event-driven core vs the fixed-step loop.

The simulation stack now routes every offline and online occurrence —
arrivals, departures, fault strikes, core deaths, re-assignments —
through :class:`repro.sim.events.EventQueue`. The pre-refactor simulator
instead *stepped*: it advanced a clock in fixed increments and scanned
for occurrences that had come due. This benchmark measures events/sec of
both dispatch strategies on an offline-shaped workload (every task
arriving at t=0 plus a Poisson fault stream, exactly what
``MulticoreSim.run`` feeds the queue), and gates on determinism:

* the fixed-step reference must deliver the **identical** event sequence
  the queue drains — same times, same kinds, same payload order;
* repeated offline simulations through the event core must produce
  bit-identical results (hashed over jobs, slices, trace and fault
  records).

It also runs a small ``online`` campaign grid point by point and audits
the admission controller's cost, which is deterministic and so gated: no
``try_admit`` may build more ``QuantumCurve`` objects than its mode has
live candidate bins, no ``remove`` more than one, no ``kill_processor``
any. Online points/s (from a second, unaudited pass) and curve builds per
admission are reported alongside.

Standalone on purpose (no pytest-benchmark dependency), so CI can run it
as a smoke step and the events/sec table lands in the job log:

    PYTHONPATH=src python benchmarks/bench_online.py --smoke

Exit code is non-zero when a determinism gate or the admission-cost gate
fails. No wall-clock gate: shared-runner timing is too noisy to fail CI on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
import time
from typing import Iterator

import numpy as np

from repro.core import AdmissionController, Overheads, QuantumCurve, design_platform
from repro.dependability import scenario_from_params
from repro.experiments.online import online_specs
from repro.experiments.paper import paper_partition
from repro.runner.engine import evaluate_point
from repro.runner.spec import canonical_json
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.multicore import MulticoreSim

from bench_util import write_bench_json

#: Fixed-step quantum of the reference loop, as a fraction of the mean
#: inter-event gap — fine enough that steps rarely deliver two events.
STEP_FRACTION = 0.25


def offline_event_stream(n_events: int, seed: int) -> list[Event]:
    """An offline-shaped stream: arrivals at t=0, then scenario strikes.

    One eighth of the stream is the t=0 arrival burst (the offline
    simulator pushes every task up front); the rest is a Poisson fault
    stream over the horizon, the dominant event source of a long
    fault-injection run.
    """
    arrivals = max(1, n_events // 8)
    events = [
        Event(0.0, EventKind.ARRIVAL, data=i) for i in range(arrivals)
    ]
    horizon = 1000.0
    strikes = n_events - arrivals
    scenario = scenario_from_params(
        {"scenario": "poisson", "rate": strikes / horizon,
         "min_separation": 0.0}
    )
    faults = scenario.generate(
        horizon, np.random.default_rng(seed), core_count=4
    )
    events.extend(
        Event(f.time, EventKind.FAULT_STRIKE, data=f) for f in faults
    )
    return events


def dispatch_event_core(events: list[Event]) -> tuple[float, list[Event]]:
    """Push + drain through the shared EventQueue; (elapsed, delivered)."""
    start = time.perf_counter()
    queue = EventQueue()
    for ev in events:
        queue.push(ev)
    delivered = list(queue.drain())
    return time.perf_counter() - start, delivered


def dispatch_fixed_step(events: list[Event]) -> tuple[float, list[Event]]:
    """The pre-refactor strategy: advance a clock in fixed increments,
    delivering everything due at each step; (elapsed, delivered)."""
    start = time.perf_counter()
    pending = sorted(
        enumerate(events), key=lambda p: (p[1].time, int(p[1].kind), p[0])
    )
    last = pending[-1][1].time if pending else 0.0
    dt = max(last / len(pending), 1e-9) * STEP_FRACTION if pending else 1.0
    delivered: list[Event] = []
    cursor, now = 0, 0.0
    while cursor < len(pending):
        while cursor < len(pending) and pending[cursor][1].time <= now:
            delivered.append(pending[cursor][1])
            cursor += 1
        now += dt
    return time.perf_counter() - start, delivered


def offline_result_digest() -> str:
    """Hash of a full table2-shaped offline run through the event core."""
    part = paper_partition()
    config = design_platform(
        part, "EDF", Overheads.uniform(0.05), "min-overhead-bandwidth"
    )
    result = MulticoreSim(part, config).run(config.period * 8)
    payload = {
        "jobs": {
            key: [
                [j.name, str(j.state), j.release, j.remaining,
                 j.completion_time]
                for j in res.jobs
            ]
            for key, res in sorted(result.processors.items())
        },
        "slices": {
            key: [[s.processor, s.job, s.start, s.end]
                  for s in res.trace.slices]
            for key, res in sorted(result.processors.items())
        },
        "trace": [
            [e.time, str(e.kind), e.who, e.detail]
            for e in result.trace.events
        ],
        "faults": [
            [r.fault.time, r.fault.core, str(r.outcome)]
            for r in result.fault_records
        ],
    }
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


#: Online grid of the admission-cost audit (``--smoke``: the first rep only).
ADMISSION_AXES = {
    "arrival_rate": [1.0, 2.0],
    "u_total": [0.5, 1.0],
    "scenario": ["poisson", "permanent"],
    "rep": [0, 1],
}


@contextlib.contextmanager
def admission_audit() -> Iterator[dict[str, list[tuple[int, int]]]]:
    """Record ``(curve builds, allowed builds)`` per admission-controller call.

    ``try_admit`` may build one curve per live candidate bin of the task's
    mode (one when the processor is given), ``remove`` one, and
    ``kill_processor`` none.
    """
    builds = [0]
    audit: dict[str, list[tuple[int, int]]] = {
        "try_admit": [], "remove": [], "kill_processor": []
    }
    real_init = QuantumCurve.__init__
    real = {name: getattr(AdmissionController, name) for name in audit}

    def counting_init(self, *args, **kwargs):
        builds[0] += 1
        real_init(self, *args, **kwargs)

    def audited(name, allowed):
        def call(self, *args, **kwargs):
            limit = allowed(self, *args, **kwargs)
            before = builds[0]
            result = real[name](self, *args, **kwargs)
            audit[name].append((builds[0] - before, limit))
            return result
        return call

    def live_candidates(self, task, processor=None):
        if processor is not None:
            return 1
        dead = self.dead_processors
        n_bins = len(self.partition().bins(task.mode))
        return sum((task.mode, i) not in dead for i in range(n_bins))

    QuantumCurve.__init__ = counting_init
    AdmissionController.try_admit = audited("try_admit", live_candidates)
    AdmissionController.remove = audited("remove", lambda self, name: 1)
    AdmissionController.kill_processor = audited(
        "kill_processor", lambda self, mode, processor: 0
    )
    try:
        yield audit
    finally:
        QuantumCurve.__init__ = real_init
        for name, fn in real.items():
            setattr(AdmissionController, name, fn)


def admission_cost(smoke: bool) -> tuple[bool, dict[str, float]]:
    """Audit and time the online grid at master seed 0; ``(within bound, metrics)``."""
    axes = dict(ADMISSION_AXES)
    if smoke:
        axes["rep"] = axes["rep"][:1]
    payloads = [(spec.experiment, spec.params, 0) for spec in online_specs(axes)]
    with admission_audit() as audit:
        for payload in payloads:
            ok, result, _ = evaluate_point(payload)
            if not ok:
                raise RuntimeError(f"online point failed: {result}")
    start = time.perf_counter()
    for payload in payloads:
        evaluate_point(payload)
    elapsed = time.perf_counter() - start

    within = True
    print(f"admission cost over {len(payloads)} online points")
    print(f"{'call':>15}  {'calls':>6}  {'builds':>7}  {'per call':>8}  {'over bound':>10}")
    for name, calls in audit.items():
        total = sum(b for b, _ in calls)
        over = sum(b > limit for b, limit in calls)
        within = within and not over
        print(
            f"{name:>15}  {len(calls):>6}  {total:>7}  "
            f"{total / max(len(calls), 1):>8.3f}  {over:>10}"
        )
    admits = audit["try_admit"]
    metrics = {
        "points": len(payloads),
        "points_per_sec": round(len(payloads) / elapsed, 2),
        "try_admit_calls": len(admits),
        "curve_builds_per_admit": round(
            sum(b for b, _ in admits) / max(len(admits), 1), 4
        ),
        "live_bins_per_admit": round(
            sum(limit for _, limit in admits) / max(len(admits), 1), 4
        ),
    }
    print(f"online points/s (unaudited pass): {metrics['points_per_sec']}")
    return within, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--events", type=int, default=200_000,
        help="events in the largest stream (default: 200000)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: 20k events, same gates, small wall-clock",
    )
    args = parser.parse_args(argv)
    top = 20_000 if args.smoke else args.events
    sizes = [top // 10, top]

    failed = False
    rates: dict[str, dict[str, float]] = {}
    print("event dispatch throughput (offline-shaped stream)")
    print(
        f"{'events':>8}  {'queue ev/s':>12}  {'fixed-step ev/s':>15}  "
        f"{'speedup':>7}"
    )
    for n in sizes:
        stream = offline_event_stream(n, seed=11)
        q_elapsed, q_delivered = dispatch_event_core(stream)
        s_elapsed, s_delivered = dispatch_fixed_step(stream)
        same = [
            (ev.time, ev.kind, id(ev.data)) for ev in q_delivered
        ] == [
            (ev.time, ev.kind, id(ev.data)) for ev in s_delivered
        ]
        failed = failed or not same
        tag = "" if same else "  DELIVERY ORDER DIVERGED"
        rates[str(len(stream))] = {
            "queue_events_per_sec": round(len(stream) / q_elapsed, 1),
            "fixed_step_events_per_sec": round(len(stream) / s_elapsed, 1),
            "speedup": round(s_elapsed / q_elapsed, 3),
        }
        print(
            f"{len(stream):>8}  {len(stream) / q_elapsed:>12.0f}  "
            f"{len(stream) / s_elapsed:>15.0f}  "
            f"{s_elapsed / q_elapsed:>6.2f}x{tag}"
        )

    digests = {offline_result_digest() for _ in range(2)}
    if len(digests) != 1:
        print("FAIL: repeated offline runs are not bit-identical")
        failed = True
    else:
        print(f"offline sim determinism: ok ({digests.pop()[:16]}…)")
    within, admission = admission_cost(args.smoke)
    write_bench_json(
        "online",
        config={"events": top, "smoke": args.smoke},
        dispatch=rates,
        deterministic=not failed,
        admission=admission,
        admission_within_bound=within,
    )
    if failed:
        print("FAIL: determinism gate")
    if not within:
        print("FAIL: an admission-controller call built more curves than allowed")
    return 1 if failed or not within else 0


if __name__ == "__main__":
    sys.exit(main())
