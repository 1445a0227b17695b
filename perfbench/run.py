"""End-to-end and per-layer benchmark of the campaign pipeline and server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload weighted --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``weighted``, ``faultspace``, ``online`` run a preset's campaign through
  ``get_preset`` / ``PresetSpec.specs/aggregator/render`` and
  ``stream_campaign``, each timing round in a fresh process;
* ``serve`` starts ``repro serve`` in its own process and drives it with
  one closed-loop HTTP client over uploaded snapshots.

Every workload first makes one untimed warm-up run, which is also traced
so every result can state its input properties (events and admission
offers per point). Timing rounds follow, as many as ``--seconds`` holds
at a nominal round length; every round times the same units (campaign
points and slices, or server requests) and each unit counts with its
fastest round, divided by how much a fixed reference kernel timed just
before it says the shared host was slowed (see :func:`slowdowns`). With
``--trace 1`` untraced and traced runs of one input follow instead, and
the result holds the per-layer metrics; otherwise it holds the
end-to-end metrics. The last line of standard output is the result as
one JSON object; the lines before it are a readable table and a JSON
line of host fingerprint, input properties, measured values, slowdowns
and sample counts.

Fresh processes import the program through a bytecode cache private to
the benchmark (``.perfbench/pycache`` in the checkout), warmed by the
warm-up run, so set-up time does not depend on whatever ``__pycache__``
the checkout holds.
"""

from __future__ import annotations

import argparse
import http.client
import importlib.metadata
import json
import math
import os
import platform
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlencode

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("weighted", "faultspace", "online", "serve")

#: Fewest timing rounds, whatever ``--seconds`` says.
MIN_ROUNDS = 3
#: Processes started after each timing round only to measure set-up time.
SETUPS_PER_ROUND = 2
#: Seconds a single fresh process may take before the run is abandoned.
CHILD_TIMEOUT = 120

#: Count metrics that must repeat exactly between traced runs of one seed.
COUNT_METRICS = (
    "admission.try_admit.calls",
    "minq.curve_builds",
    "telemetry.noop_calls",
    "kernels.fast",
    "kernels.fallback",
    "sim.events.dispatched",
)



class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong output)."""


# -- environment ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    """Environment of every fresh process the benchmark starts."""
    env = dict(os.environ)
    # Bytecode goes to a cache private to the benchmark, written even where
    # the host disables writing it, so a stale or missing __pycache__ in
    # the checkout cannot change the measured import cost.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_FAST_KERNELS", None)
    return env


def bytecode_state() -> dict:
    """Whether the private bytecode cache holds the program's modules."""
    mirror = STATE / "pycache" / (ROOT / "src" / "repro").relative_to("/")
    sources = list((ROOT / "src" / "repro").rglob("*.py"))
    cached = list(mirror.rglob("*.pyc")) if mirror.is_dir() else []
    return {
        "prefix": str(STATE.relative_to(ROOT) / "pycache"),
        "warm": bool(cached),
        "repro_pyc": len(cached),
        "repro_py": len(sources),
    }


def git_rev() -> "str | None":
    """The checkout's commit, read from ``.git`` (None outside a repository)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def fingerprint(telemetry_enabled: bool) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_rev": git_rev(),
        "bytecode_cache": bytecode_state(),
        "telemetry": "on" if telemetry_enabled else "off",
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples above its rank."""
    return tracing.quantile(values, q), len(values) - math.ceil(q * len(values))


#: Tail percentile of ``op_tail_ms``. Campaign points take p90: their
#: slowest 1% depends on which few task sets a seed draws (a p99 over the
#: 384 points of an online invocation spread by 25% between seeds).
#: Serve takes p99, which falls among the cold queries, i.e. the render
#: path.
CAMPAIGN_TAIL = 0.90
SERVE_TAIL = 0.99


# -- campaign workloads --------------------------------------------------------


def spawn_campaign(
    args: argparse.Namespace,
    env: dict,
    work: Path,
    inputs: list[str],
    trace: bool = False,
    selftest: bool = False,
) -> dict:
    """One campaign process; its report plus set-up time.

    ``inputs`` is ``["--seed", N]`` (the whole grid of master seed N) or
    ``["--seeds", "N,M"]`` (one timing round of slices).
    """
    run_dir = work / f"run-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(BENCH / "child.py"),
        "campaign",
        "--workload",
        args.workload,
        *inputs,
        "--work",
        str(run_dir),
    ]
    if trace:
        cmd.append("--trace")
    if selftest:
        cmd.append("--selftest")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"campaign process exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - spawned
    if trace:
        out["layers"] = layer_metrics(out, tracing.load(run_dir / "trace"))
    shutil.rmtree(run_dir, ignore_errors=True)
    return out


def layer_metrics(run: dict, processes) -> dict:
    metrics = tracing.summarize(processes)
    pool = run["workers"] > 1
    metrics.update(
        {
            "engine.batches": run["batches"],
            "engine.pool_efficiency": (
                run["pool_cpu_s"] / (run["workers"] * run["wall"]) if pool else 0.0
            ),
            "engine.coordinator_cpu_s": run["coordinator_cpu_s"],
            "aggregate.state_kb": run["state_kb"],
            "kernels.fast": run["kernel_fast"],
            "kernels.fallback": run["kernel_fallback"],
        }
    )
    return metrics


def master_seeds(workload: str, seed: int) -> list[int]:
    """The campaign inputs of one invocation: distinct master seeds."""
    return [seed * 1000 + i for i in range(wl.CAMPAIGNS[workload]["inputs"])]


def rounds_for(seconds: float, round_s: float) -> int:
    """Timing rounds of an invocation.

    From ``--seconds`` and a nominal round length, never from measured
    speed, so a faster or slower program is timed the same number of times.
    """
    return max(MIN_ROUNDS, round(seconds / round_s))


def best_of(samples: list[list[float]]) -> list[float]:
    """Per position, the smallest of the rounds' samples.

    The host is shared: other work slows a timed unit by anything from 0 to
    50% for a second or more at a time, never speeds it up. The fastest of
    several rounds, spread over the invocation, is the unit's own cost.
    """
    if len({len(s) for s in samples}) != 1:
        raise BenchError("rounds timed different numbers of units")
    return [min(column) for column in zip(*samples)]


def slowdowns(kernel_s: list[list[float]]) -> list[float]:
    """Per timed unit, how much slower than the reference host it ran.

    ``kernel_s`` holds, per round, the reference kernel's time taken just
    before each unit (or group of units). The shared host slows the
    program and the kernel alike for seconds to minutes at a time, so a
    unit's best time divided by its best kernel time over the same rounds
    is its cost on the reference host: a stretch that slows the whole
    invocation cancels out, where the best round alone would keep it.
    """
    return [k / wl.KERNEL_REFERENCE_S for k in best_of(kernel_s)]


def campaign_workload(args: argparse.Namespace, env: dict, work: Path) -> dict:
    seeds = master_seeds(args.workload, args.seed)
    # The warm-up runs the first input's whole grid, traced: it fills the
    # bytecode cache, runs the outcome self-test, measures the input
    # properties and gives the whole-grid aggregate the slices must equal.
    warm = spawn_campaign(
        args, env, work, ["--seed", str(seeds[0])], trace=True, selftest=True
    )
    problems: list[str] = []
    if not warm["selftest"]["ok"]:
        problems.append(f"outcome self-test failed: {warm['selftest']}")
    if seeds[0] == wl.DEFAULT_SEED:
        pinned = wl.PIN_DIGESTS[args.workload]
        if warm["pinned_digest"] != pinned:
            problems.append(
                f"aggregate digest {warm['pinned_digest']} != pinned {pinned}"
            )
    if args.trace:
        outcome = traced_campaign(args, env, work, seeds[0], warm, problems)
    else:
        outcome = timed_campaign(args, env, work, seeds, warm, problems)
    runs = outcome.pop("runs")
    if any(r["telemetry_enabled"] for r in runs):
        problems.append("telemetry was on")
    outcome["inputs"].update(
        {
            # Counted on the traced warm-up, i.e. on the first input.
            "events_dispatched_per_point": (
                warm["layers"]["sim.events.dispatched"] / warm["points"]
            ),
            "admission_offers_per_point": (
                warm["layers"]["admission.try_admit.calls"] / warm["points"]
            ),
            "workers": warm["workers"],
        }
    )
    outcome.update(
        problems=problems,
        failed=outcome["failed"] + len(problems),
        telemetry_enabled=warm["telemetry_enabled"],
    )
    return outcome


def _input_summary(seeds: list[int], tallies: list[dict]) -> dict:
    points = sum(t["points"] for t in tallies)
    reasons: dict[str, int] = {}
    for t in tallies:
        for key, value in t["reasons"].items():
            reasons[key] = reasons.get(key, 0) + value
    return {
        "master_seeds": seeds,
        "points": points,
        "infeasible_share": sum(t["outcomes"]["infeasible"] for t in tallies)
        / points,
        "infeasible_reasons": {
            k: v for k, v in reasons.items() if k in wl.INFEASIBLE
        },
        "failed_reasons": {
            k: v for k, v in reasons.items() if k not in wl.INFEASIBLE
        },
    }


def timed_campaign(
    args: argparse.Namespace,
    env: dict,
    work: Path,
    seeds: list[int],
    warm: dict,
    problems: list[str],
) -> dict:
    """Rounds of slices in fresh processes; each slice's best round counts."""
    spec = wl.CAMPAIGNS[args.workload]
    inputs = ["--seeds", ",".join(map(str, seeds))]
    rounds = []
    setups = []
    for _ in range(rounds_for(args.seconds, spec["round_s"])):
        rounds.append(spawn_campaign(args, env, work, inputs))
        setups.extend(
            spawn_campaign(args, env, work, ["--setup-only"])["setup_s"]
            for _ in range(SETUPS_PER_ROUND)
        )
        setups.append(rounds[-1]["setup_s"])

    first = rounds[0]["inputs"]
    for r in rounds[1:]:
        for a, b in zip(first, r["inputs"]):
            if (a["digest"], a["outcomes"]) != (b["digest"], b["outcomes"]):
                problems.append(
                    f"master seed {a['master_seed']}: aggregate or outcomes "
                    "differ between rounds"
                )
    if first[0]["digest"] != warm["digest"] or first[0]["outcomes"] != warm["outcomes"]:
        problems.append("merged slice aggregates differ from the whole grid's")
    if warm["report_bytes"] == 0 or any(
        s["report_bytes"] == 0 for r in rounds for i in r["inputs"] for s in i["slices"]
    ):
        problems.append("empty rendered report")

    # A slice's wall time is its points' evaluation, shared among the
    # workers, plus the rest (engine, pool, fold, snapshot, render). Each
    # point's and each slice's rest take their best round, over the
    # slice's slowdown.
    workers = spec["workers"]
    slices = [s for i in first for s in i["slices"]]
    slow = slowdowns(
        [[s["kernel_s"] for i in r["inputs"] for s in i["slices"]] for r in rounds]
    )
    point_slow = [f for f, s in zip(slow, slices) for _ in s["point_ms"]]
    raw_ms = best_of(
        [
            [t for i in r["inputs"] for s in i["slices"] for t in s["point_ms"]]
            for r in rounds
        ]
    )
    raw_rest = best_of(
        [
            [
                s["wall"] - sum(s["point_ms"]) / 1e3 / workers
                for i in r["inputs"]
                for s in i["slices"]
            ]
            for r in rounds
        ]
    )
    point_ms = [t / f for t, f in zip(raw_ms, point_slow)]
    rest = [t / f for t, f in zip(raw_rest, slow)]
    points = len(point_ms)
    tail, beyond = percentile(point_ms, CAMPAIGN_TAIL)
    setup_s = median(setups)
    rss = median(r["peak_rss_mb"] for r in rounds)
    end_to_end = {
        "ops_per_s": points / (sum(point_ms) / 1e3 / workers + sum(rest)),
        "op_tail_ms": tail,
        # Set-up is a median over the invocation's processes, and so is the
        # slowdown it is taken over.
        "setup_s": setup_s / median(slow),
        "peak_rss_mb": rss,
    }
    measured = {
        "ops_per_s": points / (sum(raw_ms) / 1e3 / workers + sum(raw_rest)),
        "op_tail_ms": percentile(raw_ms, CAMPAIGN_TAIL)[0],
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    samples = {name: len(rounds) for name in end_to_end}
    samples.update(
        setup_s=len(setups),
        points=points,
        op_tail_beyond=beyond,
    )
    inputs = _input_summary(seeds, first)
    inputs["run_points_per_s"] = [
        round(points / sum(s["wall"] for i in r["inputs"] for s in i["slices"]), 3)
        for r in rounds
    ]
    return {
        "attempted": points,
        "failed": sum(i["outcomes"]["failed"] for i in first),
        "end_to_end": end_to_end,
        "samples": samples,
        "layers": {},
        "inputs": inputs,
        "unbounded": {
            "op_p50_ms": (statistics.median(point_ms), points),
            "op_p99_ms": (percentile(point_ms, 0.99)[0], points),
        },
        "measured": measured,
        "slowdown": {"min": min(slow), "median": median(slow), "max": max(slow)},
        "runs": [warm, *rounds],
    }


def traced_campaign(
    args: argparse.Namespace,
    env: dict,
    work: Path,
    seed: int,
    warm: dict,
    problems: list[str],
) -> dict:
    """Two untraced and one more traced run of the warm-up's input."""
    inputs = ["--seed", str(seed)]
    untraced = [spawn_campaign(args, env, work, inputs) for _ in range(2)]
    traced = spawn_campaign(args, env, work, inputs, trace=True)
    runs = [warm, *untraced, traced]
    if len({r["digest"] for r in runs}) != 1:
        problems.append("aggregate differs between runs of one input")
    if len({json.dumps(r["outcomes"], sort_keys=True) for r in runs}) != 1:
        problems.append("point outcomes differ between runs of one input")
    if any(r["report_bytes"] == 0 for r in runs):
        problems.append("empty rendered report")
    for name in COUNT_METRICS:
        if traced["layers"][name] != warm["layers"][name]:
            problems.append(
                f"{name} did not repeat between traced runs: "
                f"{warm['layers'][name]} vs {traced['layers'][name]}"
            )
    layers = dict(traced["layers"])
    layers["import.repro_s"] = median(r["import_repro_s"] for r in untraced)
    layers["import.numpy_s"] = median(r["import_numpy_s"] for r in untraced)
    layers["trace.overhead_s"] = median(
        r["wall"] for r in (warm, traced)
    ) - median(r["wall"] for r in untraced)
    return {
        "attempted": traced["points"],
        "failed": traced["outcomes"]["failed"],
        "end_to_end": {},
        "samples": {},
        "layers": layers,
        "inputs": _input_summary([seed], [traced]),
        "unbounded": {},
        "runs": runs,
    }


# -- serve workload ------------------------------------------------------------


def prepare_snapshots(seed: int, work: Path) -> list[dict]:
    """Snapshots to upload and, per distinct query, its expected body."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.reporting import SnapshotQuery
    from repro.runner.presets import get_preset
    from repro.runner.spec import canonical_json
    from repro.runner.stream import stream_campaign

    prepared = []
    for name in wl.SERVE_PRESETS:
        preset = get_preset(name)
        for i in range(wl.SERVE_SEEDS):
            state = work / f"snapshot-{name}-{i}.json"
            stream_campaign(
                preset.specs(wl.SERVE_AXES[name]),
                preset.aggregator(),
                workers=1,
                master_seed=seed * wl.SERVE_SEEDS + i,
                state_path=state,
                on_error=preset.on_error,
            )
            raw = state.read_bytes()
            query = SnapshotQuery.from_snapshot(json.loads(raw), preset)
            expected = []
            for kind, params in wl.SERVE_QUERIES[name]:
                answer = query.query(kind, **params)
                text = answer if kind == "report" else canonical_json(answer)
                expected.append((kind, params, (text + "\n").encode("utf-8")))
            prepared.append(
                {
                    "preset": name,
                    "raw": raw,
                    "digest": query.content_digest,
                    "queries": expected,
                }
            )
    if len({p["digest"] for p in prepared}) != len(prepared):
        raise BenchError("two prepared snapshots have the same content")
    return prepared


def http_request(port: int, method: str, path: str, body: bytes = b""):
    """``(status, X-Cache header, body)`` of one request on a new connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body=body or None)
        resp = conn.getresponse()
        return resp.status, resp.getheader("X-Cache"), resp.read()
    except (OSError, http.client.HTTPException) as exc:
        raise BenchError(f"{method} {path}: {exc}") from exc
    finally:
        conn.close()


def _read_line(proc: subprocess.Popen, deadline: float) -> str:
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        while time.monotonic() < deadline:
            if sel.select(timeout=max(0.0, deadline - time.monotonic())):
                return proc.stdout.readline()
        return ""
    finally:
        sel.close()


def _peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def serve_once(
    env: dict, work: Path, prepared: list[dict], trace: bool
) -> dict:
    """One fresh server: start, upload, closed loop, stats, stop."""
    run_dir = work / f"serve-{time.monotonic_ns()}"
    run_dir.mkdir(parents=True)
    if trace:
        cmd = [
            sys.executable, str(BENCH / "child.py"), "serve", "--work",
            str(run_dir), "--", "--port", "0",
            "--access-log", str(run_dir / "access.ndjson"),
        ]
    else:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    spawned = time.monotonic()
    with open(run_dir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err,
            text=True,
        )
    try:
        line = _read_line(proc, spawned + CHILD_TIMEOUT)
        if "listening on" not in line:
            raise BenchError(
                f"server did not start: {line!r} "
                f"{(run_dir / 'stderr.txt').read_text()[-2000:]}"
            )
        port = int(line.rsplit(":", 1)[1])
        status, _, _ = http_request(port, "GET", "/")
        ready = time.monotonic()
        if status != 200:
            raise BenchError(f"GET / answered {status}")

        failures: list[str] = []
        uploaded = 0
        for snap in prepared:
            status, _, body = http_request(
                port, "POST", f"/snapshots?preset={snap['preset']}", snap["raw"]
            )
            uploaded += len(snap["raw"])
            if status != 202 or json.loads(body).get("snapshot") != snap["digest"]:
                failures.append(f"upload answered {status}")
        plan = [
            (
                f"/snapshots/{snap['digest']}/query/{kind}"
                + (f"?{urlencode(params)}" if params else ""),
                expected,
            )
            for snap in prepared
            for kind, params, expected in snap["queries"]
        ]
        latencies: list[float] = []
        kernel_s: list[float] = []
        misses = 0
        for round_index in range(1 + wl.SERVE_REPEATS):
            kernel_s.append(wl.reference_kernel())
            want = "miss" if round_index == 0 else "hit"
            for path, expected in plan:
                t = time.perf_counter()
                status, cache, body = http_request(port, "GET", path)
                latencies.append(time.perf_counter() - t)
                misses += cache == "miss"
                if status != 200:
                    failures.append(f"{path} answered {status}")
                elif body != expected:
                    failures.append(f"{path} ({want}) differs from SnapshotQuery")
                elif cache != want:
                    failures.append(f"{path} was a {cache}, expected a {want}")
        status, _, body = http_request(port, "GET", "/stats")
        stats = json.loads(body)["query_cache"]
        if (stats["hits"], stats["misses"]) != (
            len(plan) * wl.SERVE_REPEATS,
            len(plan),
        ):
            failures.append(f"query cache counted {stats}")
        peak = _peak_rss_mb(proc.pid)
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    out = {
        "setup_s": ready - spawned,
        "wall": sum(latencies),
        "latencies": latencies,
        "kernel_s": kernel_s,
        "requests": len(latencies) + len(prepared),
        "queries": len(latencies),
        "misses": misses,
        "failures": failures,
        "uploaded_bytes": uploaded,
        "peak_rss_mb": peak,
        "cache": stats,
    }
    if trace:
        out["trace"] = tracing.load(run_dir / "trace")
        out["access"] = [
            json.loads(line)
            for line in (run_dir / "access.ndjson").read_text().splitlines()
        ]
    shutil.rmtree(run_dir, ignore_errors=True)
    return out


def serve_workload(args: argparse.Namespace, env: dict, work: Path) -> dict:
    prepared = prepare_snapshots(args.seed, work)
    # Client and server take turns (closed loop), so they share one CPU:
    # each request then hands over without a cross-CPU wake-up, whose cost
    # on a virtual machine varies with the host's load. Servers inherit the
    # affinity when they start.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    selftest = wl.selftest()
    from repro import telemetry

    # A fixed number of fresh servers, from --seconds and a nominal length.
    loops = 2 if args.trace else rounds_for(args.seconds, wl.SERVE_NOMINAL_S)
    warm = serve_once(env, work, prepared, trace=True)
    timed = [serve_once(env, work, prepared, trace=False) for _ in range(loops)]
    traced = [serve_once(env, work, prepared, trace=True)] if args.trace else []

    problems = [f for r in (warm, *timed, *traced) for f in r["failures"]]
    if not selftest["ok"]:
        problems.append(f"outcome self-test failed: {selftest}")
    # Every server asks the same requests in the same order; each request's
    # best latency over the servers counts, over the best slowdown of its
    # pass (the reference kernel runs before every pass).
    raw = best_of([r["latencies"] for r in timed])
    slow = slowdowns([r["kernel_s"] for r in timed])
    per_pass = len(raw) // len(slow)
    latencies = [t / slow[i // per_pass] for i, t in enumerate(raw)]
    tail, beyond = percentile(latencies, SERVE_TAIL)
    setup_s = median(r["setup_s"] for r in timed)
    rss = median(r["peak_rss_mb"] for r in timed)
    end_to_end = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_tail_ms": tail * 1e3,
        "setup_s": setup_s / median(slow),
        "peak_rss_mb": rss,
    }
    measured = {
        "ops_per_s": len(raw) / sum(raw),
        "op_tail_ms": percentile(raw, SERVE_TAIL)[0] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    samples = {name: len(timed) for name in end_to_end}
    samples.update(
        requests_per_server=len(latencies),
        op_tail_beyond=beyond,
    )
    unbounded = {
        "op_p50_ms": (statistics.median(latencies) * 1e3, len(latencies))
    }
    layers: dict = {}
    if traced:
        last = traced[-1]
        layers = tracing.summarize(last["trace"])
        meta = {}
        for head, _ in last["trace"]:
            meta.update(head["meta"])
        handle = [
            a["duration_ms"]
            for a in last["access"]
            if a.get("type") == "access" and "/query/" in a["path"]
        ]
        cache = last["cache"]
        layers.update(
            {
                "engine.batches": 0,
                "engine.pool_efficiency": 0.0,
                "engine.coordinator_cpu_s": 0.0,
                "aggregate.state_kb": 0.0,
                "kernels.fast": 0,
                "kernels.fallback": 0,
                "import.repro_s": meta.get("import_repro_s", 0.0),
                "import.numpy_s": meta.get("import_numpy_s", 0.0),
                "server.cache_hit_ratio": cache["hits"]
                / (cache["hits"] + cache["misses"]),
                "server.handle_ms": median(handle),
                "server.client_ms": statistics.median(last["latencies"]) * 1e3,
                "trace.overhead_s": median(r["wall"] for r in (warm, last))
                - median(r["wall"] for r in timed),
            }
        )
        warm_layers = tracing.summarize(warm["trace"])
        for name in COUNT_METRICS:
            if name in warm_layers and warm_layers[name] != layers[name]:
                problems.append(f"{name} did not repeat between traced runs")
    requests = warm["requests"]
    return {
        "attempted": requests,
        "failed": len(problems),
        "problems": problems,
        "end_to_end": end_to_end,
        "samples": samples,
        "layers": layers,
        "inputs": {
            "snapshots": len(prepared),
            "distinct_queries": sum(len(p["queries"]) for p in prepared),
            "requests_per_server": requests,
            "miss_share": warm["misses"] / warm["queries"],
            "uploaded_snapshot_bytes": warm["uploaded_bytes"],
            "run_req_per_s": [round(r["queries"] / r["wall"], 1) for r in timed],
        },
        "unbounded": unbounded,
        "measured": measured,
        "slowdown": {"min": min(slow), "median": median(slow), "max": max(slow)},
        "telemetry_enabled": telemetry.enabled(),
    }


# -- result --------------------------------------------------------------------


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name to unit of the metrics ``BENCHMARK.json`` declares for a run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve":
            outcome = serve_workload(args, env, work)
        else:
            outcome = campaign_workload(args, env, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = outcome["layers"] if args.trace else outcome["end_to_end"]
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in declared_metrics(args.trace).items()
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        n = outcome["samples"].get(name, "")
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']:6s} n={n}")
    if not args.trace:
        for name, (value, n) in outcome["unbounded"].items():
            label = f"{name} (unbounded)"
            print(f"  {label:34s} {value:>14.6g} {'ms':6s} n={n}")
    print(f"  ops {outcome['attempted']}  ops_failed {outcome['failed']}")
    ranking = tracing.ranking(outcome["layers"]) if args.trace else []
    if ranking:
        print("  largest self time: " + " > ".join(ranking))
    for problem in outcome["problems"]:
        print(f"  PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "fingerprint": fingerprint(outcome["telemetry_enabled"]),
                "inputs": outcome["inputs"],
                "unbounded": {k: v for k, (v, _) in outcome["unbounded"].items()},
                "measured": outcome.get("measured", {}),
                "slowdown": outcome.get("slowdown", {}),
                "samples": outcome["samples"],
                "problems": outcome["problems"],
            },
            sort_keys=True,
        )
    )
    correct = not outcome["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
