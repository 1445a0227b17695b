"""Integration between modes: Eqs. 12–15 of the paper.

Each mode ``k`` needs its slot to satisfy ``Q_k − minQ_k(P) >= O_k`` where
``minQ_k(P) = max_i minQ(T_k^i, alg, P)`` over the mode's processor bins
(Eqs. 12, 13, 14). Summing the three inequalities gives the feasible-period
condition (Eq. 15):

.. math::

   G(P) \\;=\\; P - \\sum_{k} \\max_i minQ(T_k^i, alg, P) \\;\\ge\\; O_{tot}

:class:`SystemCurve` packages the whole left-hand side as a vectorised
function of ``P``; :func:`quanta_feasible` checks a concrete
:class:`~repro.core.config.SlotSchedule` against Eqs. 12–14.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.config import SlotSchedule
from repro.core.minq import QuantumCurve
from repro.model import MODE_ORDER, Mode, PartitionedTaskSet
from repro.util import EPS, check_positive


class SystemCurve:
    """Vectorised per-mode ``minQ_k(P)`` and Eq.-15 LHS ``G(P)``.

    Parameters
    ----------
    partition:
        The per-mode, per-processor task partition.
    algorithm:
        Local scheduler used on every logical processor ("RM", "DM", "EDF").
    """

    def __init__(self, partition: PartitionedTaskSet, algorithm: str):
        self._partition = partition
        self._alg = algorithm.upper()
        self._curves: dict[Mode, list[QuantumCurve]] = {
            mode: [
                QuantumCurve(ts, self._alg)
                for ts in partition.bins(mode)
                if len(ts) > 0
            ]
            for mode in Mode
        }

    @property
    def partition(self) -> PartitionedTaskSet:
        """The underlying partition."""
        return self._partition

    @property
    def algorithm(self) -> str:
        """The local scheduling algorithm."""
        return self._alg

    @property
    def pairs(self) -> int:
        """``(t, W)`` pairs one evaluation over several periods sweeps."""
        return sum(c.pairs for curves in self._curves.values() for c in curves)

    def mode_minq(self, mode: Mode, periods: np.ndarray | float) -> np.ndarray | float:
        """``minQ_k(P) = max_i minQ(T_k^i, alg, P)`` (0 for an empty mode)."""
        curves = self._curves[mode]
        scalar = np.isscalar(periods)
        ps = np.atleast_1d(np.asarray(periods, dtype=float))
        out = np.zeros_like(ps)
        for curve in curves:
            out = np.maximum(out, curve.evaluate(ps))
        return float(out[0]) if scalar else out

    def lhs(self, periods: np.ndarray | float) -> np.ndarray | float:
        """Eq. 15 left-hand side ``G(P) = P − sum_k minQ_k(P)``."""
        scalar = np.isscalar(periods)
        ps = np.atleast_1d(np.asarray(periods, dtype=float))
        total = ps.copy()
        for mode in Mode:
            total -= self.mode_minq(mode, ps)
        return float(total[0]) if scalar else total

    def min_quanta(self, period: float) -> dict[Mode, float]:
        """All three binding quanta ``minQ_k(P)`` at one period."""
        check_positive("period", period)
        return {mode: float(self.mode_minq(mode, period)) for mode in Mode}


def mode_quantum_bounds(
    partition: PartitionedTaskSet, algorithm: str, period: float
) -> dict[Mode, float]:
    """Convenience: the three ``minQ_k(P)`` values (Eqs. 12–14 lower bounds)."""
    return SystemCurve(partition, algorithm).min_quanta(period)


def quanta_feasible(
    partition: PartitionedTaskSet,
    algorithm: str,
    schedule: SlotSchedule,
    *,
    tol: float = 1e-9,
) -> dict[Mode, bool]:
    """Check Eqs. 12–14 for a concrete slot schedule.

    Mode ``k`` passes when ``Q_k − minQ_k(P) >= O_k`` (equivalently
    ``Q̃_k >= minQ_k(P)``). Empty modes pass trivially. The returned mapping
    has one verdict per mode; the schedule as a whole is feasible when all
    three hold (``SlotSchedule`` already guarantees ``sum Q_k <= P``).
    """
    bounds = mode_quantum_bounds(partition, algorithm, schedule.period)
    result: dict[Mode, bool] = {}
    for mode in MODE_ORDER:
        need = bounds[mode]
        have = schedule.usable(mode)
        result[mode] = have + max(tol, EPS * max(1.0, need)) >= need
    return result
