"""Feasible-period region analysis (the engine behind Figure 4).

The paper plots ``G(P)`` — the left-hand side of Eq. 15 — against ``P`` for
both EDF and RM and reads several designs off the curve:

* point 1 / 2: the maximum feasible period at zero overhead
  (largest root of ``G(P) = 0``);
* point 3 / 4: the maximum admissible total overhead
  (the global maximum of ``G``);
* point 5: the maximum feasible period at a given overhead
  (largest ``P`` with ``G(P) = O_tot``);
* Table 2(c): the period maximising the *slack ratio* ``(G(P) − O_tot)/P``
  (the steepest dashed line through the origin staying under the curve).

``G`` is continuous and piecewise-smooth with kinks where the binding
scheduling point/task switches, and is eventually strictly decreasing (for
large ``P`` each ``minQ_k`` grows like ``P − t_k*``, so the sum of three such
terms overtakes ``P``). Every query therefore starts from a fine grid, which
is robust to the kinks, and refines locally.

The period searches batch their evaluations of ``G``, because each
``SystemCurve.lhs`` call pays numpy call overhead for every bin of every
mode. The sweep end doubles eight grids per call (:meth:`_auto_p_max`). The
boundary bisection (:func:`_bisect_level`) evaluates a complete bisection
tree of depth ``d`` in one call and then walks it. ``d`` is the deepest tree
whose ``2^d − 1`` midpoints times the ``(t, W)`` pairs the curve sweeps stay
within :data:`_PAIR_BUDGET`. Those pairs are the binding hulls with the fast
kernels (10–30 pairs, ``d = 7``–``9``) and the full dlSets without (a few
hundred pairs give ``d = 2``–``3``). ``G`` is elementwise in ``P``, so both
searches return exactly what one scalar evaluation per step returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.integration import SystemCurve
from repro.model import Mode, PartitionedTaskSet
from repro.util import check_nonneg, check_positive

#: Midpoint × ``(t, W)`` pair products one bisection tree may evaluate.
_PAIR_BUDGET = 4096

#: Doublings of the sweep end whose grids one ``G`` call evaluates.
_DOUBLINGS_PER_CALL = 8


def _tree_depth(pairs: int) -> int:
    """Deepest bisection tree (at least 1) with ``(2^d − 1) · pairs`` within
    :data:`_PAIR_BUDGET`."""
    depth = 1
    while ((1 << (depth + 1)) - 1) * max(pairs, 1) <= _PAIR_BUDGET:
        depth += 1
    return depth


def _bisect_level(
    g: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    level: float,
    *,
    tol: float,
    max_steps: int,
    depth: int,
) -> float:
    """The ``lo`` end of a bisection of ``g(lo) >= level > g(hi)``.

    Returns exactly what the scalar loop ::

        for _ in range(max_steps):
            mid = 0.5 * (lo + hi)
            if g(mid) >= level:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol * max(1.0, hi):
                break
        return lo

    returns, for an elementwise ``g``, with one ``g`` call per ``depth``
    steps: each call evaluates the ``2^depth − 1`` midpoints of the complete
    bisection tree below the current bracket (every midpoint computed as
    the loop computes it), and the loop then walks the tree.
    """
    steps = 0
    while steps < max_steps:
        d = min(depth, max_steps - steps)
        # Level l of the tree, in heap order: node j has the children 2j
        # (left half, G(mid) < level) and 2j + 1 (right half) on level l + 1.
        los, his = np.array([lo]), np.array([hi])
        levels = []
        for _ in range(d):
            mids = 0.5 * (los + his)
            levels.append(mids)
            los = np.column_stack((los, mids)).ravel()
            his = np.column_stack((mids, his)).ravel()
        mids = np.concatenate(levels)
        values = g(mids)
        node = 0
        for l in range(d):
            k = (1 << l) - 1 + node
            mid = float(mids[k])
            steps += 1
            if values[k] >= level:
                lo = mid
                node = 2 * node + 1
            else:
                hi = mid
                node = 2 * node
            if hi - lo <= tol * max(1.0, hi):
                return lo
    return lo


@dataclass(frozen=True)
class RegionPoint:
    """A named point of the feasible region (see Figure 4)."""

    period: float
    lhs: float  # G(period)


class FeasibleRegion:
    """Sweeps and queries of the Eq.-15 region for one partition/algorithm.

    Parameters
    ----------
    partition:
        Per-mode, per-processor partition.
    algorithm:
        "RM", "DM" or "EDF".
    p_max:
        Upper end of the sweep range. Defaults to auto-expansion until the
        curve has fallen clearly below zero (all designs of interest lie at
        ``G >= 0``).
    grid:
        Number of grid points per sweep (the default resolves the paper's
        3-decimal values comfortably once combined with refinement).
    """

    def __init__(
        self,
        partition: PartitionedTaskSet,
        algorithm: str,
        *,
        p_max: float | None = None,
        grid: int = 4001,
    ):
        self._curve = SystemCurve(partition, algorithm)
        if grid < 100:
            raise ValueError(f"grid must be >= 100: got {grid}")
        self._grid = int(grid)
        self._p_max = float(p_max) if p_max is not None else self._auto_p_max()

    # -- basic evaluation --------------------------------------------------------

    @property
    def algorithm(self) -> str:
        """The local scheduling algorithm."""
        return self._curve.algorithm

    @property
    def p_max(self) -> float:
        """Upper end of the sweep range."""
        return self._p_max

    @property
    def system_curve(self) -> SystemCurve:
        """The underlying Eq.-15 curve object."""
        return self._curve

    def lhs(self, periods: np.ndarray | float) -> np.ndarray | float:
        """``G(P)`` for scalar or array input."""
        return self._curve.lhs(periods)

    def _auto_p_max(self) -> float:
        """Find a sweep end beyond the last zero crossing of ``G``.

        The first ``hi`` of ``1, 2, 4, …`` (at most 60 doublings) that
        exceeds 4 with ``G < 0`` on a 64-point grid over ``[hi/2, hi]``;
        the grids of 8 consecutive doublings go through one ``G`` call.
        """
        hi = 1.0
        for first in range(0, 60, _DOUBLINGS_PER_CALL):
            his = []
            for _ in range(min(_DOUBLINGS_PER_CALL, 60 - first)):
                his.append(hi)
                hi *= 2.0
            ps = np.concatenate([np.linspace(h / 2, h, 64) for h in his])
            g = np.asarray(self._curve.lhs(ps)).reshape(len(his), 64)
            for h, row in zip(his, g):
                if np.all(row < 0.0) and h > 4.0:
                    return h
        raise RuntimeError(
            "could not bracket the feasible region; is the partition feasible at all?"
        )

    def sweep(
        self, p_min: float | None = None, p_max: float | None = None, n: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(P grid, G(P))`` — the Figure 4 series."""
        lo = p_min if p_min is not None else self._p_max / self._grid
        hi = p_max if p_max is not None else self._p_max
        check_positive("p_min", lo)
        if hi <= lo:
            raise ValueError(f"empty sweep range [{lo}, {hi}]")
        ps = np.linspace(lo, hi, n or self._grid)
        return ps, np.asarray(self._curve.lhs(ps))

    # -- queries ------------------------------------------------------------------

    def max_feasible_period(self, otot: float = 0.0, *, tol: float = 1e-9) -> float:
        """Largest ``P`` with ``G(P) >= O_tot`` (points 1, 2 and 5 of Fig. 4).

        Raises :class:`ValueError` when no period is feasible for the given
        total overhead.
        """
        check_nonneg("otot", otot)
        ps, g = self.sweep()
        ok = g >= otot
        if not np.any(ok):
            # The grid may have missed a narrow feasible spike; refine around
            # the global maximum before giving up.
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
                # G still >= otot at the sweep end — expand.
                wider = FeasibleRegion(
                    self._curve.partition,
                    self._curve.algorithm,
                    p_max=self._p_max * 2,
                    grid=self._grid,
                )
                return wider.max_feasible_period(otot, tol=tol)
            lo, hi = float(ps[i]), float(ps[i + 1])
        # Bisection: G(lo) >= otot > G(hi).
        return _bisect_level(
            self._curve.lhs,
            lo,
            hi,
            otot,
            tol=tol,
            max_steps=200,
            depth=_tree_depth(self._curve.pairs),
        )

    def max_admissible_overhead(self) -> RegionPoint:
        """Global maximum of ``G`` (points 3 and 4 of Fig. 4).

        Returns the :class:`RegionPoint` ``(P*, G(P*))``; any total overhead
        up to ``G(P*)`` admits at least one feasible period.
        """
        ps, g = self.sweep()
        i = int(np.argmax(g))
        lo = float(ps[max(i - 1, 0)])
        hi = float(ps[min(i + 1, len(ps) - 1)])
        # Local dense refinement (G is piecewise smooth; two rounds of dense
        # grids give ~1e-9 accuracy on the argmax segment).
        for _ in range(4):
            fine = np.linspace(lo, hi, 2001)
            gv = np.asarray(self._curve.lhs(fine))
            j = int(np.argmax(gv))
            lo = float(fine[max(j - 1, 0)])
            hi = float(fine[min(j + 1, len(fine) - 1)])
        p_star = 0.5 * (lo + hi)
        return RegionPoint(p_star, float(self._curve.lhs(p_star)))

    def max_slack_ratio(self, otot: float = 0.0) -> tuple[float, RegionPoint]:
        """Maximise the redistribution ratio ``(G(P) − O_tot) / P``.

        This is the Table 2(c) design criterion — the steepest line through
        ``(0, O_tot)`` staying below the curve. Returns
        ``(ratio, RegionPoint(P*, G(P*)))``.

        Raises :class:`ValueError` when no feasible period exists.
        """
        check_nonneg("otot", otot)
        ps, g = self.sweep()
        ratios = (g - otot) / ps
        i = int(np.argmax(ratios))
        if ratios[i] < 0:
            raise ValueError(
                f"no feasible period for O_tot={otot}: best ratio {ratios[i]:.6f} < 0"
            )
        lo = float(ps[max(i - 1, 0)])
        hi = float(ps[min(i + 1, len(ps) - 1)])
        for _ in range(4):
            fine = np.linspace(lo, hi, 2001)
            gv = np.asarray(self._curve.lhs(fine))
            rv = (gv - otot) / fine
            j = int(np.argmax(rv))
            lo = float(fine[max(j - 1, 0)])
            hi = float(fine[min(j + 1, len(fine) - 1)])
        p_star = 0.5 * (lo + hi)
        g_star = float(self._curve.lhs(p_star))
        return (g_star - otot) / p_star, RegionPoint(p_star, g_star)

    def is_feasible(self, period: float, otot: float = 0.0) -> bool:
        """Check Eq. 15 at one period: ``G(P) >= O_tot``."""
        check_positive("period", period)
        check_nonneg("otot", otot)
        return float(self._curve.lhs(period)) >= otot - 1e-12

    def min_quanta(self, period: float) -> dict[Mode, float]:
        """Per-mode binding quanta at a period (delegates to the curve)."""
        return self._curve.min_quanta(period)
