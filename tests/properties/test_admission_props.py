"""The incremental admission controller against a from-scratch reference.

:class:`AdmissionController` caches one ``minQ`` per bin and rebuilds only
the bins an operation touches. :class:`ReferenceController` below is the
recompute-everything algorithm it replaced: every candidate bin and every
mutation rebuilds ``minQ`` for every bin of the mode. Random
``try_admit`` / ``remove`` / ``kill_processor`` sequences must leave both in
exactly (``==``, not approximately) the same state.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdmissionController, Overheads, design_platform
from repro.core.admission import AdmissionDecision
from repro.core.config import PlatformConfig
from repro.core.minq import QuantumCurve
from repro.experiments import paper_partition
from repro.generators import generate_mixed_taskset
from repro.model import Mode, PartitionedTaskSet, Task, TaskSet
from repro.partition import partition_by_modes
from repro.util import EPS


class ReferenceController:
    """Admission that recomputes ``minQ`` of every bin on every call."""

    def __init__(self, config: PlatformConfig, partition: PartitionedTaskSet):
        self.alg = config.algorithm.upper()
        self.period = config.period
        self.overheads = config.schedule.overheads
        self.bins = {mode: list(partition.bins(mode)) for mode in Mode}
        self.usable = {mode: config.schedule.usable(mode) for mode in Mode}
        self.slack = config.slack
        self.dead: set[tuple[Mode, int]] = set()

    def bin_minq(self, taskset: TaskSet) -> float:
        if len(taskset) == 0:
            return 0.0
        return float(QuantumCurve(taskset, self.alg).evaluate(self.period))

    def mode_minq(self, mode: Mode, bins: list[TaskSet] | None = None) -> float:
        bins = self.bins[mode] if bins is None else bins
        return max((self.bin_minq(ts) for ts in bins), default=0.0)

    def try_admit(self, task: Task, processor: int | None = None) -> AdmissionDecision:
        mode = task.mode
        bins = self.bins[mode]
        for ts in bins:
            if task.name in ts:
                return AdmissionDecision(
                    False, mode, None, 0.0, self.slack,
                    reason=f"task {task.name!r} already present",
                )
        candidates = range(len(bins)) if processor is None else [processor]
        best = None
        for idx in candidates:
            if not 0 <= idx < len(bins):
                return AdmissionDecision(
                    False, mode, None, 0.0, self.slack,
                    reason=f"processor index {idx} out of range for {mode}",
                )
            if (mode, idx) in self.dead:
                if processor is not None:
                    return AdmissionDecision(
                        False, mode, None, 0.0, self.slack,
                        reason=f"processor {mode}[{idx}] has failed permanently",
                    )
                continue
            trial = [ts if i != idx else ts.add(task) for i, ts in enumerate(bins)]
            new_minq = self.mode_minq(mode, trial)
            growth = max(new_minq - self.usable[mode], 0.0)
            extra_overhead = (
                self.overheads.of(mode)
                if self.usable[mode] <= EPS and new_minq > EPS
                else 0.0
            )
            cost = growth + extra_overhead
            if best is None or cost < best[0] - EPS:
                best = (cost, idx, new_minq)
        if best is None:
            return AdmissionDecision(
                False, mode, None, 0.0, self.slack,
                reason=f"every processor of mode {mode} has failed",
            )
        cost, idx, new_minq = best
        if cost > self.slack + 1e-9:
            return AdmissionDecision(
                False, mode, None, cost, self.slack,
                reason=(
                    f"needs {cost:.6f} extra bandwidth but only "
                    f"{self.slack:.6f} slack is reserved"
                ),
            )
        bins[idx] = bins[idx].add(task)
        grown = max(new_minq - self.usable[mode], 0.0)
        self.usable[mode] = max(self.usable[mode], new_minq)
        self.slack -= cost
        return AdmissionDecision(True, mode, idx, grown, self.slack)

    def kill_processor(self, mode: Mode, processor: int) -> tuple[Task, ...]:
        bins = self.bins[mode]
        if (mode, processor) in self.dead:
            return ()
        self.dead.add((mode, processor))
        orphans = tuple(bins[processor])
        bins[processor] = TaskSet()
        new_minq = self.mode_minq(mode)
        old_usable = self.usable[mode]
        new_usable = min(old_usable, max(new_minq, 0.0))
        freed = old_usable - new_usable
        if new_minq <= EPS and old_usable > EPS:
            freed += self.overheads.of(mode)
            new_usable = 0.0
        self.usable[mode] = new_usable
        self.slack += freed
        return orphans

    def remove(self, task_name: str) -> float:
        for mode in Mode:
            for idx, ts in enumerate(self.bins[mode]):
                if task_name in ts:
                    self.bins[mode][idx] = ts.without([task_name])
                    new_minq = self.mode_minq(mode)
                    old_usable = self.usable[mode]
                    new_usable = new_minq
                    freed = max(old_usable - new_usable, 0.0)
                    if new_minq <= EPS and old_usable > EPS:
                        freed += self.overheads.of(mode)
                        new_usable = 0.0
                    self.usable[mode] = new_usable
                    self.slack += freed
                    return freed
        raise KeyError(task_name)


@functools.lru_cache(maxsize=None)
def _deployment(source: str, algorithm: str) -> tuple[PlatformConfig, PartitionedTaskSet]:
    """A max-slack design over a paper-shaped or generated partition."""
    if source == "paper":
        part = paper_partition()
    else:
        ts = generate_mixed_taskset(
            7, 0.8, np.random.default_rng(int(source.split("-")[1])),
            period_method="hyperperiod-limited", period_hyperperiod=3600.0,
        )
        part = partition_by_modes(ts, heuristic="worst-fit", admission="utilization")
    config = design_platform(part, algorithm, Overheads.uniform(0.05), "max-slack")
    return config, part


#: Arrival periods divide 120 (and so 3600): bins keep a small hyperperiod.
_PERIODS = (4.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0, 24.0, 30.0, 40.0, 60.0, 120.0)

_admit = st.tuples(
    st.just("admit"),
    st.sampled_from(list(Mode)),
    st.sampled_from(_PERIODS),
    st.floats(min_value=0.01, max_value=0.25),
    st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
)
_remove = st.tuples(st.just("remove"), st.integers(min_value=0, max_value=99))
_kill = st.tuples(
    st.just("kill"), st.sampled_from(list(Mode)), st.integers(min_value=0, max_value=99)
)
operations = st.lists(
    st.one_of(_admit, _admit, _remove, _kill), min_size=1, max_size=10
)


def _assert_same_state(live: AdmissionController, ref: ReferenceController) -> None:
    assert live.slack == ref.slack
    for mode in Mode:
        assert live.usable_quantum(mode) == ref.usable[mode]
    assert live.config().min_quanta == {m: ref.mode_minq(m) for m in Mode}
    assert live.dead_processors == frozenset(ref.dead)
    part = live.partition()
    for mode in Mode:
        bins = part.bins(mode)
        assert [ts.names for ts in bins] == [ts.names for ts in ref.bins[mode]]
        assert live._bin_minqs[mode] == [
            float(QuantumCurve(ts, ref.alg).evaluate(ref.period)) for ts in bins
        ]


def _replay(source: str, algorithm: str, ops) -> None:
    config, part = _deployment(source, algorithm)
    live = AdmissionController(config, part)
    ref = ReferenceController(config, part)
    _assert_same_state(live, ref)
    for step, op in enumerate(ops):
        if op[0] == "admit":
            _, mode, period, frac, processor = op
            task = Task(f"dyn{step}", period * frac, period, mode=mode)
            assert live.try_admit(task, processor) == ref.try_admit(task, processor)
        elif op[0] == "remove":
            names = sorted(n for bins in ref.bins.values() for ts in bins for n in ts.names)
            if not names:
                continue
            name = names[op[1] % len(names)]
            assert live.remove(name) == ref.remove(name)
        else:
            _, mode, pick = op
            processor = pick % len(ref.bins[mode])
            assert live.kill_processor(mode, processor) == ref.kill_processor(
                mode, processor
            )
        _assert_same_state(live, ref)


@pytest.mark.parametrize("algorithm", ["EDF", "RM"])
@pytest.mark.parametrize("source", ["paper", "generated-3", "generated-8"])
@given(ops=operations)
@settings(max_examples=25, deadline=None)
def test_incremental_admission_matches_reference(source, algorithm, ops):
    _replay(source, algorithm, ops)


def test_reference_sequence_covers_every_branch():
    """A fixed sequence through growth, rejection, removal and core death."""
    ops = [
        ("admit", Mode.NF, 12.0, 0.05, None),
        ("admit", Mode.FS, 20.0, 0.2, None),
        ("admit", Mode.FT, 10.0, 0.25, 0),
        ("kill", Mode.NF, 1),
        ("admit", Mode.NF, 6.0, 0.1, 1),
        ("admit", Mode.NF, 6.0, 0.1, None),
        ("remove", 0),
        ("kill", Mode.FT, 0),
        ("admit", Mode.FT, 30.0, 0.05, None),
        ("remove", 3),
    ]
    for algorithm in ("EDF", "RM"):
        _replay("paper", algorithm, ops)
