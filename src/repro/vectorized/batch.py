"""Multi-seed batch execution: many runs through one vectorized pass.

Sweep grids spend their time on many small-to-medium (cell, seed)
replicas, where per-run Python overhead (compile, round bookkeeping)
rivals the work itself.  :func:`run_wakeup_batch` amortizes it: every
replica's nodes live in one combined array space and each synchronous
round advances *all* replicas with the same handful of numpy ops.

The contract matches the single-run numpy-core route: each returned
:class:`~repro.core.tasks.TaskResult` is counter-exact with what
``run_wakeup(..., trace_level="counters")`` returns for that graph.  If
any replica fails to compile — or any safety limit would truncate any
run — the whole batch falls back to per-simulation execution, which
itself falls back along the engine's routes; the batch is an optimization,
never a semantic fork.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..core.tasks import TaskResult, default_message_limit
from ..fastpath.topology import compiled_topology
from ..simulator.engine import Simulation
from .core import VectorLimitAbort, run_batch
from .engine import apply_counters, build_replica
from .gadgets import (
    MegaGadgetRow,
    _row_from_counters,
    gadget_spanning_program,
    sample_edge_tuple_sparse,
)
from .program import VectorTopology, compile_program

__all__ = ["run_wakeup_batch", "mega_gadget_batch"]


def _prepare(graph, oracle, algorithm, anonymous: bool, trace_level: str):
    if not graph.frozen:
        graph = graph.copy().freeze()
    advice = oracle.advise(graph)
    schemes = {
        v: algorithm.scheme_for(
            advice[v], v == graph.source, None if anonymous else v, graph.degree(v)
        )
        for v in graph.nodes()
    }
    sim = Simulation(
        graph,
        schemes,
        advice=advice,
        wakeup=True,
        anonymous=anonymous,
        max_messages=default_message_limit(graph),
        trace_level=trace_level,
        engine="vectorized",
    )
    return graph, advice, sim


def _result(graph, oracle, algorithm, advice, trace) -> TaskResult:
    informed = len(trace.informed_at)
    return TaskResult(
        task="wakeup",
        graph_nodes=graph.num_nodes,
        graph_edges=graph.num_edges,
        oracle_name=oracle.name,
        algorithm_name=algorithm.name,
        oracle_bits=advice.total_bits(),
        messages=trace.messages_sent,
        success=trace.completed and informed == graph.num_nodes,
        completed=trace.completed,
        informed=informed,
        rounds=trace.rounds,
        trace=trace,
    )


def run_wakeup_batch(
    graphs: Iterable,
    oracle,
    algorithm,
    anonymous: bool = False,
    trace_level: str = "counters",
) -> List[TaskResult]:
    """Run one (oracle, algorithm) wakeup on every graph, batched.

    Counter-exact with per-graph ``run_wakeup(..., trace_level=...)``
    calls using the default message limit.  ``trace_level`` other than
    ``"counters"``, a compile refusal, or a limit that would truncate any
    replica all fall back to per-simulation runs (still through the
    vectorized engine's own routes).
    """
    prepared = [_prepare(g, oracle, algorithm, anonymous, trace_level) for g in graphs]

    batched = trace_level == "counters"
    replicas = []
    vts = []
    if batched:
        for graph, _advice, sim in prepared:
            vt = VectorTopology(compiled_topology(graph))
            program = compile_program(sim, vt)
            if program is None:
                batched = False
                break
            vts.append(vt)
            replicas.append(build_replica(sim, vt, program))
    if batched:
        try:
            batch_counters = run_batch(replicas)
        except VectorLimitAbort:
            batched = False
    if batched:
        results = []
        for (graph, advice, sim), vt, rc in zip(prepared, vts, batch_counters):
            apply_counters(sim, vt, rc)
            sim._ran = True
            results.append(_result(graph, oracle, algorithm, advice, sim._trace))
        return results
    return [
        _result(graph, oracle, algorithm, advice, sim.run())
        for graph, advice, sim in prepared
    ]


def mega_gadget_batch(
    n: int, seeds: Sequence[int], counts: Optional[int] = None
) -> List[MegaGadgetRow]:
    """Tree wakeup on one implicit ``G_{n,S}`` per seed, in one pass.

    Each seed samples its own ``S`` (its own graph); all replicas then
    share every round's array operations.  ``counts`` overrides ``|S|``
    (default ``n``, the Theorem 2.2 shape).
    """
    count = n if counts is None else counts
    programs = []
    bits = []
    for seed in seeds:
        edge_tuple = sample_edge_tuple_sparse(n, count, seed=seed)
        program, oracle_bits = gadget_spanning_program(n, edge_tuple)
        programs.append(program)
        bits.append(oracle_bits)
    return [
        _row_from_counters(n, seed, oracle_bits, rc)
        for seed, oracle_bits, rc in zip(seeds, bits, run_batch(programs))
    ]
