"""One experiment pass in a fresh process: run, render verdicts, report.

Run from the checkout root with ``src`` on ``PYTHONPATH``::

    python perfbench/exp_worker.py --workload verdict-sweeps --seed 0 \
        --spawned-at <time.monotonic() before the spawn> [--passes 0] [--trace FILE]

The last stdout line is one JSON object: ``ready`` (the monotonic time
at which imports were done and the first timed call could start),
``setup_s``, ``pass_s`` (first ``run_experiment`` call to last verdict
rendered, gauge windows excluded), the same two in reference seconds
(``setup_ref_s``; ``pass_ref_s`` on untraced passes), ``rss_mb`` (this
process's peak RSS) and one status/digest per experiment.
``--passes 0`` stops after the imports (a set-up probe).  With
``--trace`` the layer hooks are installed during set-up and the spans of
the pass are written to FILE.

Untraced passes are gauged (``common.PassGauge``): a window of the
calibration kernel right after the imports converts set-up to reference
seconds, and short windows taken every quarter second through the pass
convert the pass.  The windows' own time is not counted in ``pass_s``.
Traced passes are not gauged.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import time

from common import GAUGE_WINDOW_S, PassGauge, gauge_mops, reference_s

#: Workload -> (experiment ids, verdict profile).  ``default`` is the grid
#: ``repro verdict`` and CI run; ``full`` is the weekly large-size grid.
WORKLOADS = {
    "verdict-sweeps": (tuple(f"E{i}" for i in range(1, 15)), "default"),
    "mega-gadgets": (("E15",), "full"),
}


def experiment_order(workload: str, seed: int):
    """The workload's experiments in the order seed ``seed`` runs them."""
    ids = list(WORKLOADS[workload][0])
    random.Random(seed).shuffle(ids)
    return ids


def rows_digest(rows) -> str:
    from repro.runner.core import jsonable

    blob = json.dumps(jsonable(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--passes", type=int, default=1, choices=(0, 1))
    parser.add_argument("--trace", default=None, metavar="FILE")
    args = parser.parse_args()

    # Set-up: every module the pass touches, so lazy imports stay out of
    # the timed pass and traced and untraced passes import the same code.
    import repro.agent  # noqa: F401
    import repro.analysis.extensions  # noqa: F401
    import repro.vectorized.batch  # noqa: F401
    from repro.analysis.experiments import run_experiment
    from repro.verdict import CRITERIA, PROFILES, evaluate_experiment

    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Recorder()
        tracer.install_experiments(recorder)
        evaluate_experiment = recorder.wrap("verdict.evaluate", evaluate_experiment)
    ready = time.monotonic()
    mops = gauge_mops(GAUGE_WINDOW_S)
    report = {"ready": ready, "setup_s": ready - args.spawned_at}
    report["setup_ref_s"] = reference_s(report["setup_s"], mops)
    if args.passes:
        ids = experiment_order(args.workload, args.seed)
        overrides = PROFILES[WORKLOADS[args.workload][1]]
        results = {}
        gauge = PassGauge(mops) if recorder is None else contextlib.nullcontext()
        with gauge:
            start = time.perf_counter()
            for eid in ids:
                result = run_experiment(eid, **dict(overrides.get(eid, {})))
                results[eid] = (result, evaluate_experiment(CRITERIA[eid], result))
        report["pass_s"] = time.perf_counter() - start
        if recorder is None:
            report["pass_s"] -= gauge.gauged_s
            report["pass_ref_s"] = reference_s(report["pass_s"], gauge.mops)
        report["experiments"] = {
            eid: {"status": verdict.status, "checks": len(verdict.checks), "digest": rows_digest(result.rows)}
            for eid, (result, verdict) in results.items()
        }
        if recorder is not None:
            recorder.add("verdict.checks", sum(len(v.checks) for _r, v in results.values()))
            recorder.dump(args.trace)
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
