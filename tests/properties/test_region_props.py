"""The batched period searches against the scalar loops they replaced.

:class:`FeasibleRegion` finds its sweep end by doubling eight grids per
``G`` call and bisects the design boundary over whole bisection trees
(:func:`repro.core.region._bisect_level`). :class:`ScalarRegion` below keeps
the original searches, one ``G`` evaluation per doubling and per bisection
step. On generated partitions both must return exactly (``==``) the same
periods, and fail with the same exception type and message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis import kernels
from repro.core import DesignError, FeasibleRegion
from repro.core.multislot import (
    _bin_point_demands,
    _f_quantum_split,
    _split_boundary_period,
)
from repro.core.region import _bisect_level, _tree_depth
from repro.experiments import paper_partition
from repro.generators import generate_mixed_taskset
from repro.model import Mode, PartitionedTaskSet
from repro.partition import partition_by_modes
from repro.partition.binpack import PartitionError
from repro.util import check_nonneg


class ScalarRegion(FeasibleRegion):
    """The period searches with one scalar ``G`` evaluation per step."""

    def _auto_p_max(self) -> float:
        hi = 1.0
        for _ in range(60):
            ps = np.linspace(hi / 2, hi, 64)
            if np.all(self._curve.lhs(ps) < 0.0) and hi > 4.0:
                return hi
            hi *= 2.0
        raise RuntimeError(
            "could not bracket the feasible region; is the partition feasible at all?"
        )

    def max_feasible_period(self, otot: float = 0.0, *, tol: float = 1e-9) -> float:
        check_nonneg("otot", otot)
        ps, g = self.sweep()
        ok = g >= otot
        if not np.any(ok):
            peak = self.max_admissible_overhead()
            if peak.lhs < otot:
                raise ValueError(
                    f"no feasible period: max admissible overhead is "
                    f"{peak.lhs:.6f} < O_tot={otot:.6f}"
                )
            lo, hi = peak.period, self._p_max
        else:
            i = int(np.nonzero(ok)[0][-1])
            if i == len(ps) - 1:
                wider = ScalarRegion(
                    self._curve.partition,
                    self._curve.algorithm,
                    p_max=self._p_max * 2,
                    grid=self._grid,
                )
                return wider.max_feasible_period(otot, tol=tol)
            lo, hi = float(ps[i]), float(ps[i + 1])
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(self._curve.lhs(mid)) >= otot:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(1.0, hi):
                break
        return lo


def _outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc))


def _both(partition, algorithm, **kwargs):
    return (
        _outcome(FeasibleRegion, partition, algorithm, **kwargs),
        _outcome(ScalarRegion, partition, algorithm, **kwargs),
    )


@st.composite
def generated_partitions(draw):
    """A worst-fit partition of a generated set with a small hyperperiod."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=3, max_value=8))
    u_total = draw(st.sampled_from([0.3, 0.6, 0.9, 1.2]))
    ts = generate_mixed_taskset(
        n, u_total, np.random.default_rng(seed),
        period_method="hyperperiod-limited", period_hyperperiod=3600.0,
    )
    try:
        part = partition_by_modes(ts, heuristic="worst-fit", admission="utilization")
    except PartitionError:
        assume(False)
    return part


algorithms = st.sampled_from(["EDF", "RM", "DM"])
fast = st.booleans()
tols = st.sampled_from([1e-9, 1e-4])
#: Overheads as fractions of the peak of ``G``; 1.0 and above probe the
#: "no feasible period" path and the refinement around the peak.
peak_fractions = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.999, 1.0, 1.05])


@given(
    generated_partitions(),
    algorithms,
    fast,
    st.lists(peak_fractions, min_size=1, max_size=3),
    tols,
)
@settings(max_examples=40, deadline=None)
def test_max_feasible_period_equals_scalar_search(
    part, alg, fast_kernels, fractions, tol
):
    with kernels.kernels_forced(fast_kernels):
        (kind, batched), (ref_kind, scalar) = _both(part, alg)
        assert kind == ref_kind
        if kind != "ok":
            assert batched == scalar  # same message
            return
        assert batched.p_max == scalar.p_max
        peak = scalar.max_admissible_overhead().lhs
        otots = [0.0] if peak <= 0 else [f * peak for f in fractions]
        for otot in otots:
            assert _outcome(batched.max_feasible_period, otot, tol=tol) == _outcome(
                scalar.max_feasible_period, otot, tol=tol
            )


@given(
    generated_partitions(),
    algorithms,
    fast,
    st.floats(min_value=0.05, max_value=4.0),
    st.sampled_from([0.0, 0.01, 0.05]),
)
@settings(max_examples=25, deadline=None)
def test_user_p_max_widening_equals_scalar_search(part, alg, fast_kernels, p_max, otot):
    # A user-given sweep end below the boundary widens the region (doubling
    # p_max) until the grid brackets it; the bisection then runs there. With
    # a single busy mode G never falls below 0 and the widening only ends
    # when the periods overflow, so such partitions are left out.
    assume(sum(len(part.mode_taskset(mode)) > 0 for mode in Mode) >= 2)
    with kernels.kernels_forced(fast_kernels):
        batched = FeasibleRegion(part, alg, p_max=p_max)
        scalar = ScalarRegion(part, alg, p_max=p_max)
        assert _outcome(batched.max_feasible_period, otot) == _outcome(
            scalar.max_feasible_period, otot
        )


@pytest.mark.parametrize("fast_kernels", [True, False])
@pytest.mark.parametrize("alg", ["EDF", "RM"])
def test_paper_partition_equals_scalar_search(alg, fast_kernels):
    with kernels.kernels_forced(fast_kernels):
        batched = FeasibleRegion(paper_partition(), alg)
        scalar = ScalarRegion(paper_partition(), alg)
        assert batched.p_max == scalar.p_max
        for otot in (0.0, 0.05, 0.1):
            assert batched.max_feasible_period(otot) == scalar.max_feasible_period(otot)


@pytest.mark.parametrize("fast_kernels", [True, False])
def test_no_feasible_period_raises_the_same_error(fast_kernels):
    with kernels.kernels_forced(fast_kernels):
        batched = FeasibleRegion(paper_partition(), "EDF")
        scalar = ScalarRegion(paper_partition(), "EDF")
        got = _outcome(batched.max_feasible_period, 0.5)
        assert got[0] is ValueError
        assert got == _outcome(scalar.max_feasible_period, 0.5)


@pytest.mark.parametrize("fast_kernels", [True, False])
@pytest.mark.parametrize("alg", ["EDF", "RM"])
def test_unbracketed_region_raises_the_same_error(alg, fast_kernels):
    # With one mode busy, G(P) = P − minQ(P) tends to t* − W > 0: the
    # doubling never sees G < 0 and gives up after 60 doublings.
    only_nf = PartitionedTaskSet({Mode.NF: paper_partition().bins(Mode.NF)})
    with kernels.kernels_forced(fast_kernels):
        kind, message = _outcome(FeasibleRegion, only_nf, alg)
        assert kind is RuntimeError
        assert message.startswith("could not bracket")
        assert (kind, message) == _outcome(ScalarRegion, only_nf, alg)


def _scalar_bisection(g, lo, hi, level, *, tol, max_steps):
    """The scalar loop :func:`_bisect_level` replaces; ``(lo, steps)``."""
    steps = 0
    for _ in range(max_steps):
        steps += 1
        mid = 0.5 * (lo + hi)
        if g(np.array([mid]))[0] >= level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    return lo, steps


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-6, max_value=10.0),
    st.sampled_from([1e-9, 1e-4, 0.0]),
    st.integers(min_value=1, max_value=250),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_bisect_level_walks_the_scalar_loop(lo, cut, width, tol, max_steps, depth):
    # A decreasing step function crossing ``level`` inside the bracket;
    # tol=0 never stops early, so the step cap ends the search.
    hi = lo + width
    boundary = lo + cut * width
    calls = []

    def g(ps):
        calls.append(len(ps))
        return np.where(ps <= boundary, 1.0, -1.0)

    expect, steps = _scalar_bisection(g, lo, hi, 0.0, tol=tol, max_steps=max_steps)
    calls.clear()
    got = _bisect_level(g, lo, hi, 0.0, tol=tol, max_steps=max_steps, depth=depth)
    assert got == expect
    assert len(calls) <= math.ceil(steps / depth)
    assert all(n <= (1 << depth) - 1 for n in calls)


def test_tree_depth_keeps_the_pair_budget():
    assert _tree_depth(32) == 7
    assert _tree_depth(1) == 12
    assert _tree_depth(5000) == 1
    for pairs in range(1, 3000, 37):
        d = _tree_depth(pairs)
        assert d == 1 or ((1 << d) - 1) * pairs <= 4096
        assert ((1 << (d + 1)) - 1) * pairs > 4096


def _scalar_split_boundary(partition, algorithm, pieces, otot, *, p_max, grid):
    """The split design's original boundary search: demands rebuilt and one
    scalar evaluation per bisection step."""

    def lhs(ps):
        out = ps.copy()
        for mode in Mode:
            best = np.zeros_like(ps)
            for ts in partition.bins(mode):
                for pts, w, is_edf in _bin_point_demands(ts, algorithm):
                    f = _f_quantum_split(
                        pts[:, None], w[:, None], ps[None, :], pieces.get(mode, 1)
                    )
                    best = np.maximum(best, f.max(axis=0) if is_edf else f.min(axis=0))
            out -= best
        return out

    ps = np.linspace(p_max / grid, p_max, grid)
    ok = np.nonzero(lhs(ps) >= otot)[0]
    if ok.size == 0:
        raise DesignError("no feasible period")
    i = int(ok[-1])
    lo = float(ps[i])
    hi = float(ps[min(i + 1, grid - 1)])
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if float(lhs(np.array([mid]))[0]) >= otot:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return lo


PIECES = [
    {},
    {Mode.FT: 2},
    {Mode.FS: 2, Mode.NF: 3},
    {Mode.FT: 2, Mode.FS: 2, Mode.NF: 2},
    {Mode.NF: 4},
]


def _split_outcome(search, partition, alg, pieces, otot, **kwargs):
    try:
        return search(partition, alg, pieces, otot, **kwargs)
    except DesignError:
        return DesignError


@pytest.mark.parametrize("pieces", PIECES, ids=str)
@pytest.mark.parametrize("alg", ["EDF", "RM"])
def test_split_boundary_equals_scalar_search_on_paper_partition(alg, pieces):
    for otot in (0.0, 0.05, 0.15):
        got = _split_outcome(
            _split_boundary_period, paper_partition(), alg, pieces, otot,
            p_max=64.0, grid=2001,
        )
        assert got == _split_outcome(
            _scalar_split_boundary, paper_partition(), alg, pieces, otot,
            p_max=64.0, grid=2001,
        )
        assert otot == 0.15 or got is not DesignError


@given(
    generated_partitions(),
    algorithms,
    st.sampled_from(PIECES),
    st.sampled_from([0.0, 0.05, 0.2]),
    st.sampled_from([(64.0, 2001), (8.0, 500)]),
)
@settings(max_examples=40, deadline=None)
def test_split_boundary_equals_scalar_search(part, alg, pieces, otot, sweep):
    p_max, grid = sweep
    assert _split_outcome(
        _split_boundary_period, part, alg, pieces, otot, p_max=p_max, grid=grid
    ) == _split_outcome(
        _scalar_split_boundary, part, alg, pieces, otot, p_max=p_max, grid=grid
    )
