"""The event queue shared by the offline and online simulation cores.

Both simulators — :class:`repro.sim.multicore.MulticoreSim` (the offline
special case: every task arrives at t=0 and stays) and
:class:`repro.sim.online.OnlineSim` (runtime arrivals/departures, live
admission, failure-triggered re-assignment) — drive their discrete dynamics
through one :class:`EventQueue`. The queue is a plain binary heap with a
**total deterministic order**:

``(time, kind priority, insertion sequence)``

* events pop in nondecreasing time;
* at equal times, the :class:`EventKind` priority breaks the tie — platform
  state changes (core death) are observed before the fault strikes they
  explain, departures free bandwidth before the same instant's admissions
  consume it, and re-assigned orphans (who held an admission before the
  failure) re-admit ahead of brand-new arrivals;
* at equal ``(time, kind)``, events pop in insertion order (FIFO), which is
  exactly the stable ``sorted(faults, key=time)`` order the pre-refactor
  offline loop used — the property the byte-identity goldens pin.

No wall clock, no randomness: given the same pushes, every drain is
identical, which is what lets campaign points built on either simulator
keep the runner's bit-identical ``(workers, batch, shard)`` contract.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro import telemetry


class EventKind(enum.IntEnum):
    """Discrete simulation events; the int value is the same-time priority."""

    #: A core fails permanently (``PermanentScenario``'s onset).
    CORE_DEATH = 0
    #: A transient soft error strikes one core.
    FAULT_STRIKE = 1
    #: A task leaves the system and releases its bandwidth.
    DEPARTURE = 2
    #: A re-assignment attempt for a task orphaned by a core death.
    REASSIGN = 3
    #: A task enters the system (offline: all at t=0).
    ARRIVAL = 4

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name.lower()


#: Telemetry counter name per kind, indexed by the kind's int value.
_DISPATCH_COUNTER = tuple(f"sim.events.{kind.name.lower()}" for kind in EventKind)


@dataclass(frozen=True)
class Event:
    """One timestamped simulation event.

    ``data`` carries the kind-specific payload (a task, a fault, a core
    index, ...) and never participates in the ordering.
    """

    time: float
    kind: EventKind
    data: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.time, (int, float)) or isinstance(self.time, bool):
            raise TypeError(f"event time must be a number: got {self.time!r}")
        if not math.isfinite(self.time):
            raise ValueError(f"event time must be finite: got {self.time!r}")
        if self.time < 0:
            raise ValueError(f"event time must be >= 0: got {self.time!r}")
        if not isinstance(self.kind, EventKind):
            raise TypeError(f"event kind must be an EventKind: got {self.kind!r}")


class EventQueue:
    """A deterministic min-heap of :class:`Event`.

    Orders by ``(time, kind priority, insertion sequence)``; pushing during
    a drain is allowed (the online engine schedules departures and
    re-assignments from inside its handlers).

    Pushes and per-kind dispatches are tallied in the queue and reported
    to telemetry by :meth:`flush`, which every drain calls when it ends
    (and :meth:`pop` at once), so neither :meth:`push` nor the dispatch
    loop makes a telemetry call per event. A queue that is pushed to but
    never drained reports its pushes through an explicit :meth:`flush`.
    """

    def __init__(self, events: "Iterator[Event] | list[Event] | tuple[Event, ...]" = ()):
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        #: Pushes and dispatches per kind not yet reported to telemetry.
        self._pushed = 0
        self._dispatched = [0] * len(EventKind)
        for ev in events:
            self.push(ev)

    def push(self, event: Event) -> None:
        """Insert one event (FIFO among equal ``(time, kind)`` keys)."""
        if not isinstance(event, Event):
            raise TypeError(f"expected an Event: got {event!r}")
        heapq.heappush(
            self._heap, (event.time, int(event.kind), self._seq, event)
        )
        self._seq += 1
        self._pushed += 1

    def push_at(self, time: float, kind: EventKind, data: Any = None) -> Event:
        """Build and insert an event; returns it."""
        ev = Event(time, kind, data)
        self.push(ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the next event (IndexError when empty)."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        _time, kind, _seq, event = heapq.heappop(self._heap)
        self._dispatched[kind] += 1
        self.flush()
        return event

    def peek(self) -> Event:
        """The next event without removing it (IndexError when empty)."""
        if not self._heap:
            raise IndexError("peek into an empty EventQueue")
        return self._heap[0][3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self, until: float | None = None) -> Iterator[Event]:
        """Pop events in order; stop (leaving the rest) at ``time >= until``.

        Handlers may :meth:`push` while iterating — newly scheduled events
        join the drain in their proper order (including at the current
        instant, where the kind/FIFO rules still apply).
        """
        heap = self._heap
        tally = self._dispatched
        try:
            while heap:
                if until is not None and heap[0][0] >= until:
                    return
                _time, kind, _seq, event = heapq.heappop(heap)
                tally[kind] += 1
                yield event
        finally:
            self.flush()

    def flush(self) -> None:
        """Report the tallies to telemetry and reset them: one call for the
        pushes, one for the dispatch total and one per kind dispatched."""
        if self._pushed:
            telemetry.count("sim.events.pushed", self._pushed)
            self._pushed = 0
        tally = self._dispatched
        total = sum(tally)
        if not total:
            return
        telemetry.count("sim.events.dispatched", total)
        for kind, n in enumerate(tally):
            if n:
                telemetry.count(_DISPATCH_COUNTER[kind], n)
                tally[kind] = 0


__all__ = ["Event", "EventKind", "EventQueue"]
