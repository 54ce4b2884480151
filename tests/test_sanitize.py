"""Tests for the hash-randomization stress harness (``repro sanitize``)."""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.sanitize import (
    SMOKE_CELLS,
    cell_names,
    format_report,
    run_cell,
    run_matrix,
)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(REPO_ROOT, "src")


def _digest_in_subprocess(cell, hash_seed, fastpath="1", vectorized="0"):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["REPRO_FASTPATH"] = fastpath
    env["REPRO_VECTORIZED"] = vectorized
    env["PYTHONPATH"] = SRC
    script = (
        "import hashlib\n"
        "from repro.sanitize import run_cell\n"
        f"print(hashlib.sha256(run_cell({cell!r})).hexdigest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.strip()


class TestGrid:
    def test_grid_covers_all_tasks_and_a_random_scheduler(self):
        tasks = {cell.task for cell in SMOKE_CELLS}
        assert tasks == {"broadcast", "wakeup", "gossip"}
        assert any(cell.scheduler == "random" for cell in SMOKE_CELLS)

    def test_cell_names_are_unique(self):
        names = cell_names()
        assert len(names) == len(set(names))

    def test_unknown_cell_is_a_usage_error(self, capsys):
        assert main(["sanitize", "--cells", "no-such-cell"]) == 2
        assert "unknown sanitize cell" in capsys.readouterr().err


class TestBlobDeterminism:
    def test_run_cell_is_repeatable_in_process(self):
        for name in ("broadcast-kstar-sync", "gossip-complete-sync"):
            assert run_cell(name) == run_cell(name)

    def test_blob_is_canonical_jsonl_plus_summary(self):
        blob = run_cell("gossip-complete-sync").decode("utf-8")
        lines = blob.strip().split("\n")
        assert len(lines) > 1
        import json

        summary = json.loads(lines[-1])
        assert summary["success"] is True
        # Every delivery line carries a payload rendered as a sorted list,
        # never a raw frozenset repr.
        assert "frozenset" not in blob

    def test_gossip_blob_is_byte_identical_across_hash_seeds(self):
        # The headline regression: gossip rumor payloads are frozensets of
        # strings, whose repr order followed PYTHONHASHSEED before the
        # jsonable fix.  Three interpreter launches must agree exactly.
        digests = {
            _digest_in_subprocess("gossip-complete-sync", seed) for seed in (0, 1, 2)
        }
        assert len(digests) == 1

    def test_fastpath_and_reference_engines_agree(self):
        a = _digest_in_subprocess("broadcast-kstar-sync", 0, fastpath="1")
        b = _digest_in_subprocess("broadcast-kstar-sync", 0, fastpath="0")
        assert a == b

    def test_vectorized_engine_agrees_with_the_others(self):
        a = _digest_in_subprocess("wakeup-kstar-sync", 0, fastpath="0")
        b = _digest_in_subprocess("wakeup-kstar-sync", 1, vectorized="1")
        assert a == b

    def test_counters_rerun_goes_through_the_numpy_batch_core(self, monkeypatch):
        import repro.vectorized.engine as vengine

        batches = []
        real = vengine.run_batch

        def counting(replicas):
            batches.append(len(replicas))
            return real(replicas)

        monkeypatch.setattr(vengine, "run_batch", counting)
        monkeypatch.setenv("REPRO_VECTORIZED", "1")
        vectorized = run_cell("wakeup-kstar-sync")
        assert batches == [1]
        monkeypatch.setenv("REPRO_VECTORIZED", "0")
        assert run_cell("wakeup-kstar-sync") == vectorized
        assert batches == [1]
        assert b'"counters":' in vectorized


class TestMatrix:
    def test_small_matrix_is_identical_and_reports_ok(self):
        names = ["gossip-complete-sync"]
        ok, entries = run_matrix(hash_seeds=(0, 1), cells=names)
        assert ok
        # 2 seeds x 3 engines + 1 repeat
        assert len(entries) == 7
        assert {entry.label.split()[1] for entry in entries} == {
            "engine=fastpath", "engine=reference", "engine=vectorized",
        }
        report = format_report(ok, entries, names)
        assert "byte-identical" in report
        assert "DIVERGED" not in report

    def test_divergence_is_reported_per_entry(self):
        from repro.sanitize import MatrixEntry

        entries = [
            MatrixEntry(label="hashseed=0", digests={"c": "a" * 64}),
            MatrixEntry(label="hashseed=1", digests={"c": "b" * 64}),
        ]
        report = format_report(False, entries, ["c"])
        assert "DIVERGED" in report
        assert "hashseed=1" in report

    def test_cli_exit_zero_on_identical_run(self, capsys):
        assert main(["sanitize", "--hash-seeds", "0", "--cells", "wakeup-kstar-fifo"]) == 0
        assert "byte-identical" in capsys.readouterr().out
