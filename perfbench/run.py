"""The repository benchmark: one workload per run, timed end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verdict-sweeps --seed 0 --seconds 35 --trace 0

Workloads (see README.md for why each exists and what it predicts):

* ``verdict-sweeps`` — E1-E14 on the ``default`` verdict grid plus verdicts;
* ``mega-gadgets`` — E15 on the ``full`` grid plus its verdict;
* ``serve-zipf`` — ``repro serve`` under a zipfian hot set plus fresh keys.

Every pass runs in a fresh process.  ``--trace 0`` reports the
end-to-end metrics, measured with tracing off; ``--trace 1`` reports the
per-layer metrics from traced passes (and untraced passes to price the
tracing).  The last stdout line is the JSON result; the lines above it
give provenance and every metric by name and unit.  The exit code is 1
if any operation failed or any output was wrong, 2 on a usage or
checkout error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    GAUGE_WINDOW_S,
    gauge_cpus_mops,
    median,
    min_samples_for,
    percentile,
    provenance,
    reference_s,
)

WORKLOADS = ("verdict-sweeps", "mega-gadgets", "serve-zipf")

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5

#: Pass timeout; one pass takes about 10 s on a 2-CPU host.
PASS_TIMEOUT_S = 150

#: serve-zipf shape.  The closed-loop pass is the end-to-end timing; the
#: open-loop ladder gives latency at fixed offered rates.  Rates are
#: frozen from the capacity measured at the commit that defined the
#: benchmark (closed loop 1,100-1,300 req/s over two connections on a
#: 2-CPU host): low, mid and high are its first three rungs.
SERVE_BOOTS = 3
PASS_REQUESTS = 1500
LADDER_RPS = (200, 400, 600, 800, 1000, 1200)
LADDER_BUDGET_S = 12
PASS_BUDGET_S = 1.5
FIXED_RATES = {"low": 200, "mid": 400, "high": 600}
STEP_REQUESTS = min_samples_for(0.99)  # 1000: ten samples beyond the p99
SLO_P99_MS = 50.0
SAMPLE_SHARE = 0.01

#: End-to-end metrics: name -> unit.  ``pass_s`` is one pass of the
#: workload's fixed unit of work (README.md, "Metrics").
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics: name -> unit, reported by every ``--trace 1`` run
#: (0 where the workload does not reach the layer).
PER_LAYER = {
    "network.build_s": "s",
    "network.graphs": "count",
    "network.gnp_draws": "count",
    "network.gnp_accept_ratio": "ratio",
    "network.gnp_fallbacks": "count",
    "oracles.advise_s": "s",
    "oracles.advise_calls": "count",
    "oracles.advice_bits": "bits",
    "fastpath.compile_s": "s",
    "fastpath.compiles": "count",
    "simulator.run_s.fastpath": "s",
    "simulator.run_s.legacy": "s",
    "simulator.run_s.vectorized": "s",
    "simulator.runs": "count",
    "simulator.deliveries": "count",
    "simulator.ns_per_delivery": "ns",
    "core.task_self_s": "s",
    "agent.explore_s": "s",
    "agent.moves": "count",
    "lowerbounds.s": "s",
    "analysis.fit_s": "s",
    "analysis.driver_self_s": "s",
    "verdict.evaluate_s": "s",
    "verdict.checks": "count",
    "vectorized.sample_s": "s",
    "vectorized.program_s": "s",
    "vectorized.batch_s": "s",
    "vectorized.deliveries": "count",
    "vectorized.ns_per_delivery": "ns",
    "service.protocol_us": "us",
    "service.handle_us.hit": "us",
    "service.handle_us.miss": "us",
    "service.compute_ms.p50": "ms",
    "service.compute_ms.p90": "ms",
    "service.encode_us": "us",
    "service.response_kb": "KB",
    "service.miss_time_share": "ratio",
    "service.wire_us": "us",
    "service.hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.rejected": "count",
    "service.queue_depth_p99": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.hit_share": "ratio",
    "loadgen.miss_share": "ratio",
    "loadgen.coalesced_share": "ratio",
    "loadgen.p50_ms.low": "ms",
    "loadgen.p99_ms.low": "ms",
    "loadgen.p50_ms.mid": "ms",
    "loadgen.p99_ms.mid": "ms",
    "loadgen.p50_ms.high": "ms",
    "loadgen.p99_ms.high": "ms",
    "loadgen.max_rps_at_slo": "req/s",
}


class BenchError(RuntimeError):
    """A pass or the daemon could not be run at all."""


def child_env() -> Dict[str, str]:
    """The library on the path, no ``REPRO_*`` overrides (the program sees
    only the inputs the benchmark generates) and one hash seed, so dict
    and set layouts do not add process-to-process noise."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Run:
    """Counters and human-readable lines of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: Dict[str, Tuple[float, str]] = {}

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(why)

    def note(self, name: str, value: float, unit: str) -> None:
        """A metric printed by name (not part of the JSON result)."""
        self.notes[name] = (value, unit)


# ----------------------------------------------------------------------
# verdict-sweeps and mega-gadgets
# ----------------------------------------------------------------------
def load_digests() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def experiment_pass(run: Run, passes: int, trace_file: Optional[str] = None) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "exp_worker.py"),
        "--workload", run.workload, "--seed", str(run.seed), "--passes", str(passes),
    ]
    if trace_file:
        cmd += ["--trace", trace_file]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        env=child_env(), capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"experiment worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_experiments(run: Run, report: dict, digests: Dict[str, str]) -> None:
    for eid, outcome in report["experiments"].items():
        run.attempted += 1
        if outcome["status"] != "CONFIRMED":
            run.fail(f"{eid} verdict {outcome['status']}")
        elif outcome["digest"] != digests.get(eid):
            run.fail(f"{eid} rows digest {outcome['digest'][:16]} != committed")


def run_experiments(run: Run) -> Dict[str, float]:
    import tracer

    digests = load_digests()[run.workload]
    experiment_pass(run, 0)  # untimed: fills byte-code caches
    plain: List[dict] = []
    traced: List[dict] = []
    traces: List[dict] = []
    start = time.monotonic()

    def room_for_another() -> bool:
        done = plain + traced
        elapsed = time.monotonic() - start
        return elapsed + elapsed / len(done) <= run.seconds

    # Passes start only while one more fits in --seconds, so a run
    # measures for about that long whatever the host's speed.
    while not plain or (run.trace and not traced) or room_for_another():
        if run.trace and len(traced) < len(plain):
            path = os.path.join(run.tmp, f"spans-{len(traced)}.json")
            traced.append(experiment_pass(run, 1, path))
            with open(path, encoding="utf-8") as handle:
                traces.append(json.load(handle))
            check_experiments(run, traced[-1], digests)
        else:
            plain.append(experiment_pass(run, 1))
            check_experiments(run, plain[-1], digests)
    raw_pass_s = median([p["pass_s"] for p in plain])
    run.note("verdict_s", raw_pass_s, "s")
    run.note("passes", len(plain), "count")
    if run.trace:
        layers = tracer.layer_metrics(traces)
        # Traced passes are not gauged: compare raw seconds on both sides.
        layers["trace.overhead_frac"] = median([p["pass_s"] for p in traced]) / raw_pass_s - 1
        roots = [s for t in traces for s in t["spans"] if s[2] in ("analysis.driver", "verdict.evaluate")]
        rooted = sum(end - start for _i, _p, _n, start, end in roots)
        layers["trace.unattributed_frac"] = layers["analysis.driver_self_s"] * len(traces) / rooted
        return layers
    setups = list(plain)
    while len(setups) < SETUP_SAMPLES:
        setups.append(experiment_pass(run, 0))
    run.note("raw_setup_s", median([p["setup_s"] for p in setups]), "s")
    return {
        "setup_s": median([p["setup_ref_s"] for p in setups]),
        "pass_s": median([p["pass_ref_s"] for p in plain]),
        "peak_rss_mb": median([p["rss_mb"] for p in plain]),
    }


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("VmHWM missing from /proc status")


class Daemon:
    """One ``repro serve`` process (traced through the launcher or not)."""

    def __init__(self, run: Run, spans_out: Optional[str] = None) -> None:
        self.run = run
        self.spans_out = spans_out
        self.proc: Optional[subprocess.Popen] = None
        self.setup_s = self.setup_ref_s = 0.0
        self.warm_stats: dict = {}

    async def start(self, warm: List[dict]) -> "loadgen.LoadGenerator":
        """Boot, wait for ``serving``, warm the hot set; returns a client
        with one connection per CPU."""
        import loadgen

        if self.spans_out:
            cmd = [sys.executable, os.path.join(HERE, "serve_traced.py"), "--spans-out", self.spans_out]
        else:
            cmd = [sys.executable, "-m", "repro"]
        log_path = os.path.join(self.run.tmp, "daemon.log")
        log = open(log_path, "ab")
        spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd + ["serve", "--port", "0"], env=child_env(),
            stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL,
        )
        log.close()
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(loop.run_in_executor(None, self.proc.stdout.readline), 60)
        if not line.startswith(b"repro-serve ready http="):
            with open(log_path, "rb") as handle:
                raise BenchError(f"daemon did not start: {line!r} {handle.read()[-2000:]!r}")
        port = int(line.split()[2].rsplit(b":", 1)[1])
        gen = loadgen.LoadGenerator("127.0.0.1", port, len(os.sched_getaffinity(0)))
        while (await gen.get_json("/healthz")).get("status") != "serving":
            await asyncio.sleep(0.01)
        step = await gen.run(warm)
        self.run.attempted += len(step.outcomes)
        if step.failed:
            self.run.fail(f"{step.failed} warm-up requests failed", step.failed)
        self.setup_s = time.monotonic() - spawned
        self.setup_ref_s = reference_s(self.setup_s, gauge_cpus_mops(GAUGE_WINDOW_S))
        self.warm_stats = await gen.get_json("/stats")
        return gen

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = "killed"
        self.proc.stdout.close()
        if code != 0:
            self.run.fail(f"daemon exited {code} on SIGTERM")
        self.proc = None


#: ``/stats`` counters of how the daemon answered a job request.
ANSWER_COUNTERS = {"hit": "service_cache_hits", "miss": "service_computed", "coalesced": "service_coalesced"}


def answer_shares(before: dict, after: dict) -> Dict[str, float]:
    """Hit, miss and coalesced shares of the requests answered between two
    ``/stats`` snapshots of one daemon, as the daemon counted them."""

    def counter(stats: dict, name: str) -> float:
        return stats.get("metrics", {}).get(name, {}).get("value") or 0

    counts = {k: counter(after, name) - counter(before, name) for k, name in ANSWER_COUNTERS.items()}
    total = sum(counts.values())
    return {k: v / total if total else 0.0 for k, v in counts.items()}


def closed_pass_count(seconds: float) -> int:
    """Closed-loop passes per daemon: fixed by ``--seconds``, not by the
    clock, so every run of one length leaves the daemon holding the same
    cache contents (its heap, and so its speed and peak RSS, depend on
    them)."""
    return max(2, int((seconds - LADDER_BUDGET_S) / PASS_BUDGET_S))


def _sample(rng: random.Random, count: int) -> List[bool]:
    return [rng.random() < SAMPLE_SHARE for _ in range(count)]


async def closed_passes(gen, mix, rng: random.Random, count: int):
    """``count`` closed-loop passes, the host's speed gauged on every CPU
    before each and after the last (client and daemon run on different
    CPUs); returns the batches and each pass in reference seconds (at the
    mean speed of the two gauges around it)."""
    batches, ref_s = [], []
    mops = gauge_cpus_mops(GAUGE_WINDOW_S)
    for _ in range(count):
        requests = mix.take(PASS_REQUESTS)
        step = await gen.run(requests, sample=_sample(rng, len(requests)))
        before, mops = mops, gauge_cpus_mops(GAUGE_WINDOW_S)
        batches.append((requests, step))
        ref_s.append(reference_s(step.wall_s, (before + mops) / 2))
    return batches, ref_s


async def ladder(gen, mix, rng: random.Random):
    """Open-loop rungs: the fixed rates always, then up until a rung
    misses the limit."""
    import loadgen

    batches, steps = [], {}
    for rate in LADDER_RPS:
        requests = mix.take(STEP_REQUESTS)
        arrivals = loadgen.poisson_arrivals(rng, rate, STEP_REQUESTS)
        step = await gen.run(requests, arrivals=arrivals, sample=_sample(rng, len(requests)), rate=rate)
        batches.append((requests, step))
        steps[rate] = step
        if rate > max(FIXED_RATES.values()) and not step.meets(SLO_P99_MS):
            break
    return batches, steps


def tally(run: Run, batches) -> None:
    for _requests, step in batches:
        run.attempted += len(step.outcomes)
        if step.failed:
            run.fail(f"{step.failed} requests failed (rate {step.rate})", step.failed)


def check_bytes(run: Run, sampled: Dict[str, List[bytes]]) -> None:
    """Byte-diff every sampled response against a direct library call
    (computed once per request)."""
    from repro.service import canonical_json, execute_job, normalize_request, ok_envelope, request_key

    checked = 0
    for rid, bodies in sorted(sampled.items()):
        params = normalize_request(json.loads(rid))
        expected = canonical_json(ok_envelope(request_key(params), execute_job(params))).encode("utf-8")
        wrong = sum(1 for body in bodies if body != expected)
        if wrong:
            run.fail(f"{wrong} of {len(bodies)} responses differ for {rid}", wrong)
        checked += len(bodies)
    run.note("byte_checked", checked, "count")
    run.note("byte_checked_keys", len(sampled), "count")


def ladder_metrics(steps) -> Dict[str, float]:
    """``loadgen.*`` figures of the open-loop ladder (0 for a p99 that
    has fewer than ten samples beyond it)."""
    out: Dict[str, float] = {}
    for label, rate in FIXED_RATES.items():
        out[f"loadgen.p50_ms.{label}"] = steps[rate].p50_ms()
        out[f"loadgen.p99_ms.{label}"] = steps[rate].p99_ms() or 0.0
    passing = [rate for rate, step in steps.items() if step.meets(SLO_P99_MS)]
    out["loadgen.max_rps_at_slo"] = float(max(passing, default=0))
    out["loadgen.lag_p99_ms"] = percentile([1e3 * lag for s in steps.values() for lag in s.lags], 0.99) or 0.0
    return out


def server_mean_us(trace: dict, begin: float, end: float) -> float:
    """Mean daemon handle plus encode time (us) of the requests the traced
    daemon answered between ``begin`` and ``end`` (monotonic clock)."""

    def window(name: str) -> List[float]:
        return [value for at, value in trace["samples"].get(name, ()) if begin <= at <= end]

    handled = [v for k in ANSWER_COUNTERS for v in window(f"service.handle_s.{k}")]
    encoded = window("service.encode_s")
    if not handled or not encoded:
        raise BenchError("the traced daemon recorded no requests during the ladder")
    return 1e6 * (sum(handled) / len(handled) + sum(encoded) / len(encoded))


async def run_serve_async(run: Run) -> Dict[str, float]:
    import loadgen

    warm = loadgen.hot_set()

    subprocess.run(  # untimed: fills byte-code caches
        [sys.executable, "-c", "import repro.cli, repro.service.daemon"],
        env=child_env(), check=True, timeout=PASS_TIMEOUT_S,
    )
    count = closed_pass_count(run.seconds)
    daemons: List[Daemon] = []
    sampled: Dict[str, List[bytes]] = {}
    try:
        if run.trace:
            plain = Daemon(run)
            daemons.append(plain)
            gen = await plain.start(warm)
            plain_batches, plain_ref_s = await closed_passes(
                gen, loadgen.Mix(run.seed), random.Random(run.seed), count // 2
            )
            tally(run, plain_batches)
            await gen.close()
            plain.stop()
            for rid, bodies in gen.sampled.items():
                sampled.setdefault(rid, []).extend(bodies)
            spans = os.path.join(run.tmp, "daemon-spans.json")
            daemon = Daemon(run, spans_out=spans)
            count //= 2
        else:
            for _ in range(SERVE_BOOTS - 1):
                probe = Daemon(run)
                daemons.append(probe)
                gen = await probe.start(warm)
                await gen.close()
                probe.stop()
            daemon = Daemon(run)
        daemons.append(daemon)
        gen = await daemon.start(warm)
        mix, rng = loadgen.Mix(run.seed), random.Random(run.seed)
        batches, ref_s = await closed_passes(gen, mix, rng, count)
        # Before the ladder, whose length depends on where it stops.
        rss = peak_rss_mb(daemon.proc.pid)
        ladder_begin = time.monotonic()
        ladder_batches, steps = await ladder(gen, mix, rng)
        ladder_end = time.monotonic()
        stats = await gen.get_json("/stats")
        await gen.close()
        daemon.stop()
    finally:
        for d in daemons:
            if d.proc is not None:
                d.proc.kill()
                d.proc.wait()
    pass_s = median(ref_s)
    tally(run, batches + ladder_batches)
    for rid, bodies in gen.sampled.items():
        sampled.setdefault(rid, []).extend(bodies)
    check_bytes(run, sampled)
    client = ladder_metrics(steps)
    client.update({f"loadgen.{k}_share": v for k, v in answer_shares(daemon.warm_stats, stats).items()})
    raw_pass_s = median([step.wall_s for _r, step in batches])
    run.note("raw_pass_s", raw_pass_s, "s")
    run.note("closed_rps", PASS_REQUESTS / raw_pass_s, "req/s")
    if not run.trace:
        for name, value in client.items():
            run.note(name.split(".", 1)[1], value, PER_LAYER[name])
        run.note("raw_setup_s", median([d.setup_s for d in daemons]), "s")
        return {"setup_s": median([d.setup_ref_s for d in daemons]), "pass_s": pass_s, "peak_rss_mb": rss}

    import tracer

    with open(spans, encoding="utf-8") as handle:
        trace = json.load(handle)
    layers = tracer.layer_metrics([trace])
    layers.update(client)
    layers["trace.overhead_frac"] = pass_s / median(plain_ref_s) - 1
    # Open-loop requests only, on both sides: a closed pass pipelines, so
    # its send-to-answer times include waiting behind the requests ahead
    # on the connection.
    client_ms = [1e3 * (o.done - o.sent) for _r, step in ladder_batches for o in step.outcomes]
    client_us = 1e3 * sum(client_ms) / len(client_ms)
    server_us = server_mean_us(trace, ladder_begin, ladder_end)
    layers["service.wire_us"] = client_us - server_us
    layers["trace.unattributed_frac"] = (client_us - server_us) / client_us
    counters = stats.get("metrics", {})

    def counter(name):
        return counters.get(name, {}).get("value", 0) or 0

    answered = sum(counter(name) for name in ANSWER_COUNTERS.values())
    layers["service.hit_ratio"] = counter("service_cache_hits") / answered if answered else 0.0
    layers["service.coalesced"] = counter("service_coalesced")
    layers["service.rejected"] = stats["rejected"]
    layers["service.queue_depth_p99"] = counters.get("service_queue_depth", {}).get("p99") or 0
    layers["cache.hit_ratio"] = stats["cache"]["hit_rate"] or 0.0
    layers["cache.evictions"] = stats["cache"]["evictions"]
    return layers


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("error: run from the root of a repro checkout (src/repro is missing)", file=sys.stderr)
        return 2
    sys.path.insert(1, os.path.join(root, "src"))

    tmp = os.path.join(root, ".perfbench-tmp", f"{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    try:
        print("provenance " + json.dumps(provenance(root, args.workload, args.seed), sort_keys=True), flush=True)
        if args.workload == "serve-zipf":
            metrics = asyncio.run(run_serve_async(run))
        else:
            metrics = run_experiments(run)
    except (BenchError, subprocess.SubprocessError, OSError, asyncio.TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    units = PER_LAYER if run.trace else END_TO_END
    if run.trace:  # a layer the workload never reaches reads 0
        metrics = {name: metrics.get(name, 0.0) for name in PER_LAYER}
    run.note("failed_frac", run.failed / max(1, run.attempted), "ratio")
    for name, (value, unit) in sorted(run.notes.items()):
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")
    for name in units:
        print(f"metric {args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    for why in run.failures:
        print(f"FAILED: {why}")
    result = {
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not run.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
