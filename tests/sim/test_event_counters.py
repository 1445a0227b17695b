"""Pinned ``sim.events.*`` telemetry totals of whole simulation runs.

The event queue reports its pushes and dispatches to telemetry in totals
at the end of each drain rather than per event; these pins were captured
from the per-event implementation, so the totals a run manifest shows must
not move.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import Overheads, design_platform
from repro.dependability import scenario_from_params
from repro.experiments.paper import paper_partition
from repro.runner.engine import evaluate_point
from repro.sim import Event, EventKind, EventQueue
from repro.sim.multicore import MulticoreSim
from repro.telemetry import Telemetry

ONLINE_PARAMS = {
    "arrival_rate": 2.0,
    "u_total": 1.0,
    "rep": 0,
    "n": 6,
    "cycles": 30,
    "otot": 0.05,
    "rate": 0.05,
    "source": "generated",
}

ONLINE_COUNTERS = {
    "poisson": {
        "sim.events.arrival": 52,
        "sim.events.departure": 29,
        "sim.events.dispatched": 81,
        "sim.events.pushed": 90,
    },
    "permanent": {
        "sim.events.arrival": 51,
        "sim.events.core_death": 1,
        "sim.events.departure": 41,
        "sim.events.dispatched": 97,
        "sim.events.pushed": 106,
        "sim.events.reassign": 4,
    },
}

MULTICORE_COUNTERS = {
    "sim.events.arrival": 13,
    "sim.events.dispatched": 15,
    "sim.events.fault_strike": 2,
    "sim.events.pushed": 15,
}


def _event_counters(recorder: Telemetry) -> dict[str, int]:
    return {
        name: n
        for name, n in sorted(recorder.counters.items())
        if name.startswith("sim.events.")
    }


@pytest.mark.parametrize("scenario", sorted(ONLINE_COUNTERS))
def test_online_point_event_counters_pinned(scenario):
    recorder = Telemetry()
    with telemetry.activated(recorder):
        ok, result, _ = evaluate_point(
            ("online", {**ONLINE_PARAMS, "scenario": scenario}, 0)
        )
    assert ok, result
    assert _event_counters(recorder) == ONLINE_COUNTERS[scenario]


def test_multicore_run_event_counters_pinned():
    part = paper_partition()
    config = design_platform(
        part, "EDF", Overheads.uniform(0.05), "min-overhead-bandwidth"
    )
    horizon = config.period * 12
    faults = scenario_from_params({"scenario": "poisson", "rate": 0.05}).generate(
        horizon, np.random.default_rng(7), core_count=config.core_count
    )
    recorder = Telemetry()
    with telemetry.activated(recorder):
        MulticoreSim(part, config).run(horizon, faults=faults)
    assert _event_counters(recorder) == MULTICORE_COUNTERS


class TestDispatchTally:
    def _queue(self):
        return EventQueue(
            [
                Event(1.0, EventKind.ARRIVAL),
                Event(2.0, EventKind.DEPARTURE),
                Event(3.0, EventKind.ARRIVAL),
            ]
        )

    def test_partial_drain_reports_only_what_it_dispatched(self):
        queue = self._queue()
        recorder = Telemetry()
        with telemetry.activated(recorder):
            assert len(list(queue.drain(until=2.5))) == 2
        assert recorder.counters["sim.events.dispatched"] == 2
        assert recorder.counters["sim.events.arrival"] == 1
        assert recorder.counters["sim.events.departure"] == 1

    def test_abandoned_drain_still_reports(self):
        queue = self._queue()
        recorder = Telemetry()
        with telemetry.activated(recorder):
            for _ev in queue.drain():
                break
        assert recorder.counters["sim.events.dispatched"] == 1
        assert recorder.counters["sim.events.arrival"] == 1

    def test_pop_reports_at_once(self):
        queue = self._queue()
        recorder = Telemetry()
        with telemetry.activated(recorder):
            queue.pop()
            queue.pop()
        assert recorder.counters["sim.events.dispatched"] == 2
        assert recorder.counters["sim.events.departure"] == 1

    def test_pushes_are_reported_with_the_drain(self):
        queue = EventQueue()
        recorder = Telemetry()
        with telemetry.activated(recorder):
            queue.push_at(1.0, EventKind.ARRIVAL)
            queue.push_at(2.0, EventKind.ARRIVAL)
            assert "sim.events.pushed" not in recorder.counters
            for ev in queue.drain():
                if ev.time == 1.0:
                    queue.push_at(5.0, EventKind.DEPARTURE)
        assert recorder.counters["sim.events.pushed"] == 3
        assert recorder.counters["sim.events.dispatched"] == 3

    def test_never_drained_queue_reports_through_flush(self):
        recorder = Telemetry()
        with telemetry.activated(recorder):
            queue = self._queue()
            queue.push_at(4.0, EventKind.DEPARTURE)
            queue.flush()
            queue.flush()  # the tally was reset: nothing is counted twice
        assert recorder.counters == {"sim.events.pushed": 4}
