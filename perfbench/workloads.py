"""What each workload runs, how outcomes are classified, and pinned outputs.

Plain data and pure functions: imported by both the coordinator
(``run.py``) and the fresh processes it starts (``child.py``), and never
imports the program itself.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

#: Campaign workloads: preset, axis overrides (the preset's own grid, with
#: ``rep`` spelled out), pool size, and whether each campaign keeps a
#: snapshot and a result cache (fresh per campaign). The timed rounds run
#: the grid in slices of ``slice_reps`` consecutive ``rep`` values (each
#: slice a campaign of well under a second), over ``inputs`` master seeds;
#: ``round_s`` is the nominal length of one round, process start included,
#: which with ``--seconds`` sets the number of rounds.
CAMPAIGNS: dict[str, dict[str, Any]] = {
    # Many ~7 ms points through the pool: batching, IPC, fold, snapshot
    # flushes and cache writes count. The grid is the preset's own,
    # lengthened along ``rep``.
    "weighted": {
        "preset": "weighted",
        "axes": {"rep": list(range(20))},
        "slice_reps": 5,
        "workers": 2,
        "state": True,
        "inputs": 1,
        "round_s": 5.0,
    },
    # Design plus the uniprocessor fault simulation over five scenarios,
    # inline; two in five points are infeasible.
    "faultspace": {
        "preset": "faultspace",
        "axes": {"rep": list(range(5))},
        "slice_reps": 1,
        "workers": 1,
        "state": False,
        "inputs": 3,
        "round_s": 5.0,
    },
    # Online admission dominates; inline.
    "online": {
        "preset": "online",
        "axes": {"rep": list(range(4))},
        "slice_reps": 1,
        "workers": 1,
        "state": False,
        "inputs": 3,
        "round_s": 7.5,
    },
}

# -- host speed ----------------------------------------------------------------

#: Best time of :func:`reference_kernel`, in seconds, on the machine the
#: benchmark was built on (2 vCPUs of a 2.1 GHz Xeon, quiet neighbours).
KERNEL_REFERENCE_S = 0.0075


def _kernel_loop() -> float:
    start = time.perf_counter()
    table = dict.fromkeys(range(1024), 0)
    total = 0
    for i in range(50_000):
        table[i & 1023] = i * 3
        total += table[(i * 7) & 1023]
    return time.perf_counter() - start


def reference_kernel() -> float:
    """Seconds a fixed pure-Python loop takes, on the CPUs this process uses.

    The loop (dict stores and loads, integer arithmetic) never changes
    with the program, so how much slower than :data:`KERNEL_REFERENCE_S`
    it runs tells how much the shared host slowed everything down. The
    best of two runs on each CPU the process may use, averaged over those
    CPUs: other tenants slow each virtual CPU by a different amount, and a
    pool's workers run on all of them.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(min(_kernel_loop(), _kernel_loop()))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


#: Seed whose aggregate digests are pinned in ``pins.json``.
DEFAULT_SEED = 0

_PINS = json.loads((Path(__file__).resolve().parent / "pins.json").read_text())

#: Aggregate metric keys that existed when the pins were taken. The pinned
#: digest covers only these, so a later change may add a metric but may
#: not change the value of one of these.
PIN_KEYS: dict[str, list[str]] = {
    name: pin["keys"] for name, pin in _PINS.items()
}
PIN_DIGESTS: dict[str, str] = {
    name: pin["sha256"] for name, pin in _PINS.items()
}

#: Errors that mean "this task set cannot be scheduled": a result,
#: reported as a count. Any other exception is a failed point.
INFEASIBLE = ("DesignError", "PartitionError")


def classify(outcome: Any) -> str:
    """``folded``, ``infeasible`` or ``failed`` for one collected result.

    Failed points are stored by the engine as ``{"error": "<Type>: <msg>"}``.
    """
    if isinstance(outcome, dict) and set(outcome) == {"error"}:
        kind = str(outcome["error"]).split(":", 1)[0].strip()
        return "infeasible" if kind in INFEASIBLE else "failed"
    return "folded"


#: A point known to raise a non-infeasibility error at master seed 0
#: (``RuntimeError: could not bracket the feasible region`` from the
#: period-region search); the self-test requires it to classify as failed.
KNOWN_BUG_POINT = {
    "preset": "sched",
    "axes": {"u_total": [1.5], "n": [4], "rep": [3]},
    "master_seed": 0,
}


def selftest() -> dict:
    """Classify :data:`KNOWN_BUG_POINT`, evaluated through the engine."""
    from repro.runner.engine import evaluate_point
    from repro.runner.presets import get_preset

    point = KNOWN_BUG_POINT
    spec = get_preset(point["preset"]).specs(point["axes"])[0]
    ok, message, _ = evaluate_point(
        (spec.experiment, spec.params, point["master_seed"])
    )
    outcome = message if ok else {"error": message}
    return {
        "ok": classify(outcome) == "failed"
        and classify({"error": "DesignError: x"}) == "infeasible"
        and classify({"error": "PartitionError: x"}) == "infeasible",
        "outcome": outcome,
    }


# -- serve ---------------------------------------------------------------------

#: Snapshots uploaded per run: these presets at SERVE_SEEDS seeds each,
#: from single-rep grids (the bins, and so the render work, of the full
#: preset; fewer points to prepare).
SERVE_PRESETS = ("weighted", "faultspace", "online")
SERVE_SEEDS = 3
SERVE_AXES: dict[str, dict[str, Any]] = {
    "weighted": {"rep": [0]},
    "faultspace": {"rep": [0]},
    "online": {"rep": [0]},
}

#: The distinct queries asked of every snapshot of a preset:
#: ``(kind, params)``.
SERVE_QUERIES: dict[str, list[tuple[str, dict[str, str]]]] = {
    "weighted": [
        ("report", {}),
        ("summary", {}),
        ("metrics", {}),
        ("curve", {"metric": "weighted_feasible"}),
        ("curve", {"metric": "weighted_feasible", "axis": "u_total"}),
        ("curve", {"metric": "fault_coverage", "axis": "rate"}),
    ],
    "faultspace": [
        ("report", {}),
        ("summary", {}),
        ("metrics", {}),
        ("curve", {"metric": "outcomes", "axis": "scenario"}),
        ("categorical", {"metric": "outcomes"}),
        ("categorical", {"metric": "outcomes_by_mode"}),
    ],
    "online": [
        ("report", {}),
        ("summary", {}),
        ("metrics", {}),
        ("curve", {"metric": "acceptance"}),
        ("curve", {"metric": "acceptance", "axis": "scenario"}),
        ("curve", {"metric": "lost", "axis": "scenario"}),
    ],
}

#: Each distinct query is asked once cold, then this many more times, so
#: the miss share is 1 / (1 + SERVE_REPEATS) by construction.
SERVE_REPEATS = 19

#: Nominal seconds of one fresh server's run (start, uploads, closed loop).
SERVE_NOMINAL_S = 2.5
