"""Per-layer spans recorded from outside the library.

:func:`install_experiments` and :func:`install_service` wrap the public
calls of each layer by patching the attribute every caller looks up (a module global, a registry entry or a
class attribute), so ``src/`` stays untouched.  Spans live in memory as
``(id, parent id, name, start, end)`` tuples, one stack per thread, and
are written out when the process ends; :func:`layer_metrics` turns them
into self times (a span's duration minus what its child spans cover).

Span names are ``<layer>.<call>``; the mapping to the benchmark's
per-layer metrics is in :func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from common import median, percentile, self_times


class Recorder:
    """Spans, counters and raw samples of one traced process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def sample(self, name: str, value: float) -> None:
        """Keep ``value`` with the ``time.monotonic()`` it was taken at (the
        clock the load generator's event loop runs on)."""
        self.samples.setdefault(name, []).append((time.monotonic(), value))

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        skip_nested: bool = False,
    ) -> Callable:
        """``fn`` timed as a span called ``name``.

        ``after(out, args, start, end, parent_name)`` runs outside the span.
        ``skip_nested`` leaves calls made inside a span of the same name
        untimed (``super().advise`` inside an ``advise`` override).
        """
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if skip_nested and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(recorder._ids)
            parent, parent_name = stack[-1] if stack else (0, None)
            stack.append((sid, name))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append((sid, parent, name, start, end))
            if after is not None:
                after(out, args, start, end, parent_name)
            return out

        return traced

    def wrap_async(self, name: str, fn: Callable, after: Callable) -> Callable:
        """A coroutine method timed as a top-level span.

        Coroutines interleave on one thread, so these spans never enter
        the per-thread stack: calls made inside them get no parent.
        """
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = clock()
            out = await fn(*args, **kwargs)
            end = clock()
            recorder.spans.append((next(recorder._ids), 0, name, start, end))
            after(out, args, start, end, None)
            return out

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "counts": self.counts, "samples": self.samples},
                handle,
            )


def patch_everywhere(original: Callable, replacement: Callable) -> int:
    """Rebind every ``repro`` module global that names ``original``."""
    patched = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched += 1
    if not patched:
        raise RuntimeError(f"no caller of {original.__qualname__} found to patch")
    return patched


def _wrap_method(rec: Recorder, cls: type, attr: str, name: str, **kw) -> None:
    setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], **kw))


# ----------------------------------------------------------------------
# Library layers (experiments and the daemon's compute path)
# ----------------------------------------------------------------------
def _install_network(rec: Recorder) -> None:
    import networkx

    from repro.network import builders, constructions
    from repro.network.graph import PortLabeledGraph

    def count_graph(out, args, start, end, parent_name):
        if parent_name != "network.build":
            rec.add("network.graphs")

    for family, builder in list(builders.FAMILY_BUILDERS.items()):
        builders.FAMILY_BUILDERS[family] = rec.wrap("network.build", builder, after=count_graph)
    for fn in (constructions.subdivision_family_graph, constructions.clique_family_graph):
        patch_everywhere(fn, rec.wrap("network.build", fn, after=count_graph))
    _wrap_method(rec, PortLabeledGraph, "freeze", "network.build")
    _wrap_method(rec, PortLabeledGraph, "validate", "network.build")

    # G(n, p) rejection sampling: draws and connected draws per call.
    frames = threading.local()
    gnp_random_graph = networkx.gnp_random_graph
    is_connected = networkx.is_connected

    def counted_gnp(*args, **kwargs):
        frame = getattr(frames, "frame", None)
        if frame is not None:
            frame[0] += 1
        return gnp_random_graph(*args, **kwargs)

    def counted_is_connected(graph):
        connected = is_connected(graph)
        frame = getattr(frames, "frame", None)
        if frame is not None and connected:
            frame[1] += 1
        return connected

    random_connected_gnp = builders.random_connected_gnp

    def framed_gnp(*args, **kwargs):
        outer = getattr(frames, "frame", None)
        frames.frame = frame = [0, 0]
        try:
            return random_connected_gnp(*args, **kwargs)
        finally:
            frames.frame = outer
            rec.add("network.gnp_draws", frame[0])
            rec.add("network.gnp_accepts", frame[1])
            if frame[1] == 0:
                rec.add("network.gnp_fallbacks")

    networkx.gnp_random_graph = counted_gnp
    networkx.is_connected = counted_is_connected
    patch_everywhere(random_connected_gnp, rec.wrap("network.build", framed_gnp))


def _all_subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


def _install_oracles(rec: Recorder) -> None:
    from repro.core.oracle import Oracle

    def count_advice(out, args, start, end, parent_name):
        rec.add("oracles.advise_calls")
        rec.add("oracles.advice_bits", out.total_bits())

    for cls in set(_all_subclasses(Oracle)):
        if "advise" in cls.__dict__ and not getattr(cls.__dict__["advise"], "__isabstractmethod__", False):
            _wrap_method(rec, cls, "advise", "oracles.advise", after=count_advice, skip_nested=True)


def _install_engines(rec: Recorder) -> None:
    from repro.fastpath import engine as fast_engine
    from repro.fastpath import topology
    from repro.simulator.engine import Simulation
    from repro.vectorized import engine as vec_engine

    def count_compile(out, args, start, end, parent_name):
        rec.add("fastpath.compiles")

    fn = topology.compile_topology
    patch_everywhere(fn, rec.wrap("fastpath.compile", fn, after=count_compile))

    def count_run(out, args, start, end, parent_name):
        rec.add("simulator.runs")
        rec.add("simulator.deliveries", out.delivered)

    _wrap_method(rec, Simulation, "run", "simulator.run", after=count_run)
    _wrap_method(rec, Simulation, "_run_legacy", "simulator.legacy")
    for fn, name in (
        (fast_engine.run_fastpath, "simulator.fastpath"),
        (vec_engine.run_vectorized, "simulator.vectorized"),
    ):
        patch_everywhere(fn, rec.wrap(name, fn))


def _install_core(rec: Recorder) -> None:
    from repro.core import tasks

    for fn in (tasks.run_wakeup, tasks.run_broadcast):
        patch_everywhere(fn, rec.wrap("core.task", fn))


def install_library(rec: Recorder) -> None:
    """Hooks shared by the experiment passes and the daemon."""
    _install_network(rec)
    _install_oracles(rec)
    _install_engines(rec)
    _install_core(rec)


def install_experiments(rec: Recorder) -> None:
    """Library hooks plus the experiment-only layers."""
    import repro.agent
    from repro.analysis import experiments, fits
    from repro.vectorized import batch

    install_library(rec)

    def count_moves(out, args, start, end, parent_name):
        rec.add("agent.moves", out.moves)

    fn = repro.agent.run_exploration
    patch_everywhere(fn, rec.wrap("agent.explore", fn, after=count_moves))

    drivers = {
        value
        for value in vars(experiments).values()
        if inspect.isfunction(value) and value.__module__.startswith("repro.lowerbounds")
    }
    for fn in sorted(drivers, key=lambda f: f.__qualname__):
        patch_everywhere(fn, rec.wrap("lowerbounds", fn))

    patch_everywhere(fits.classify_growth, rec.wrap("analysis.fit", fits.classify_growth))
    for eid, driver in list(experiments.EXPERIMENTS.items()):
        experiments.EXPERIMENTS[eid] = rec.wrap("analysis.driver", driver)

    def count_deliveries(out, args, start, end, parent_name):
        rec.add("vectorized.deliveries", sum(int(rc.delivered) for rc in out))

    batch.sample_edge_tuple_sparse = rec.wrap("vectorized.sample", batch.sample_edge_tuple_sparse)
    batch.gadget_spanning_program = rec.wrap("vectorized.program", batch.gadget_spanning_program)
    batch.run_batch = rec.wrap("vectorized.batch", batch.run_batch, after=count_deliveries)


def install_service(rec: Recorder) -> None:
    """Library hooks plus the daemon's request path.

    Must run before the :class:`AdviceService` is constructed: it binds
    ``execute_job`` into its job runner at construction.
    """
    from repro.service import core, server

    install_library(rec)
    request_key = core.request_key
    started: Dict[str, float] = {}
    finished: Dict[str, float] = {}

    core.normalize_request = rec.wrap("service.protocol", core.normalize_request)
    core.request_key = rec.wrap("service.protocol", request_key)

    timed_job = rec.wrap("service.compute", core.execute_job)

    @functools.wraps(core.execute_job)
    def execute_job(params, *args, **kwargs):
        key = request_key(params)
        started.setdefault(key, time.perf_counter())
        try:
            return timed_job(params, *args, **kwargs)
        finally:
            finished.setdefault(key, time.perf_counter())

    core.execute_job = execute_job

    kinds: Dict[str, str] = {}

    def count_encode(out, args, start, end, parent_name):
        if isinstance(args[0], dict) and "result" in args[0]:
            rec.sample("service.encode_s", end - start)
            rec.sample("service.response_bytes", len(out))
            rec.add(f"service.time_s.{kinds.get(args[0].get('key'), 'error')}", end - start)

    server.canonical_json = rec.wrap("service.encode", server.canonical_json, after=count_encode)

    def classify(out, args, start, end, parent_name):
        envelope, status, _headers = out
        key = envelope.get("key")
        if status != 200 or key is None:
            kind = "error"
        elif finished.get(key, start) < start:
            kind = "hit"
        elif started.get(key, start) < start:
            kind = "coalesced"
        else:
            kind = "miss"
        kinds[key] = kind
        rec.sample(f"service.handle_s.{kind}", end - start)
        rec.add(f"service.time_s.{kind}", end - start)

    core.AdviceService.handle_request = rec.wrap_async(
        "service.handle", core.AdviceService.handle_request, classify
    )


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer time metrics: metric name -> the span name whose self time it sums.
SELF_TIME_METRICS = {
    "network.build_s": "network.build",
    "oracles.advise_s": "oracles.advise",
    "fastpath.compile_s": "fastpath.compile",
    "simulator.run_s.fastpath": "simulator.fastpath",
    "simulator.run_s.legacy": "simulator.legacy",
    "simulator.run_s.vectorized": "simulator.vectorized",
    "core.task_self_s": "core.task",
    "agent.explore_s": "agent.explore",
    "lowerbounds.s": "lowerbounds",
    "analysis.fit_s": "analysis.fit",
    "analysis.driver_self_s": "analysis.driver",
    "verdict.evaluate_s": "verdict.evaluate",
    "vectorized.sample_s": "vectorized.sample",
    "vectorized.program_s": "vectorized.program",
    "vectorized.batch_s": "vectorized.batch",
}

#: Counters reported as they are (summed over the traced passes).
COUNT_METRICS = (
    "network.graphs",
    "network.gnp_draws",
    "network.gnp_fallbacks",
    "oracles.advise_calls",
    "oracles.advice_bits",
    "fastpath.compiles",
    "simulator.runs",
    "simulator.deliveries",
    "agent.moves",
    "verdict.checks",
    "vectorized.deliveries",
)


def self_time_by_name(spans) -> Dict[str, float]:
    selfs = self_times(spans)
    out: Dict[str, float] = {}
    for sid, _parent, name, _start, _end in spans:
        out[name] = out.get(name, 0.0) + selfs[sid]
    return out


def layer_metrics(traces: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-pass layer metrics, averaged over the traced passes ``traces``
    (each a :meth:`Recorder.dump` document)."""
    passes = len(traces)
    by_name: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    samples: Dict[str, List[float]] = {"service.compute_s": []}
    for trace in traces:
        spans = [tuple(s) for s in trace["spans"]]
        samples["service.compute_s"] += [e - s for _i, _p, n, s, e in spans if n == "service.compute"]
        for name, value in self_time_by_name(spans).items():
            by_name[name] = by_name.get(name, 0.0) + value
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, values in trace["samples"].items():
            samples.setdefault(name, []).extend(value for _at, value in values)
    out: Dict[str, float] = {}
    for metric, name in SELF_TIME_METRICS.items():
        out[metric] = by_name.get(name, 0.0) / passes
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0) / passes
    draws = counts.get("network.gnp_draws", 0)
    out["network.gnp_accept_ratio"] = counts.get("network.gnp_accepts", 0) / draws if draws else 0.0
    sim_s = sum(v for n, v in by_name.items() if n.startswith("simulator.")) / passes
    deliveries = out["simulator.deliveries"]
    out["simulator.ns_per_delivery"] = 1e9 * sim_s / deliveries if deliveries else 0.0
    vec = out["vectorized.deliveries"]
    out["vectorized.ns_per_delivery"] = 1e9 * out["vectorized.batch_s"] / vec if vec else 0.0
    out.update(service_metrics(by_name, counts, samples))
    return out


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def service_metrics(
    by_name: Dict[str, float], counts: Dict[str, float], samples: Dict[str, List[float]]
) -> Dict[str, float]:
    """Daemon-side request metrics from the service spans.

    ``service.miss_time_share`` is the misses' share of the daemon's
    handle plus encode time (each response's encode charged to the kind
    of request that produced it).
    """
    handled = sum(len(samples.get(f"service.handle_s.{k}", ())) for k in ("hit", "miss", "coalesced"))
    compute_ms = [1e3 * s for s in samples.get("service.compute_s", ())]
    # Misses are a few hundred per daemon: p90 is the highest percentile
    # with ten samples beyond it.
    p90 = percentile(compute_ms, 0.90)
    kind_s = {k: counts.get(f"service.time_s.{k}", 0.0) for k in ("hit", "miss", "coalesced", "error")}
    return {
        "service.protocol_us": 1e6 * by_name.get("service.protocol", 0.0) / handled if handled else 0.0,
        "service.handle_us.hit": 1e6 * _mean(samples.get("service.handle_s.hit", [])),
        "service.handle_us.miss": 1e6 * _mean(samples.get("service.handle_s.miss", [])),
        "service.compute_ms.p50": median(compute_ms) if compute_ms else 0.0,
        "service.compute_ms.p90": p90 if p90 is not None else 0.0,
        "service.encode_us": 1e6 * _mean(samples.get("service.encode_s", [])),
        "service.response_kb": _mean(samples.get("service.response_bytes", [])) / 1e3,
        "service.miss_time_share": kind_s["miss"] / sum(kind_s.values()) if any(kind_s.values()) else 0.0,
    }
