"""Exit-code contract of scripts/check_bench_regression.py.

The gate distinguishes a perf regression (exit 1) from a harness/setup
problem (exit 2).  A missing or unparsable BENCH file must land in the
second bucket with a clear stderr message, never a traceback.
"""

import json
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "check_bench_regression.py")


def _run(*argv):
    return subprocess.run(
        [sys.executable, SCRIPT, *argv],
        capture_output=True,
        text=True,
    )


def _export(extra_info):
    return {
        "schema": "repro-bench/1",
        "benchmarks": [
            {"name": "test_engine_per_delivery", "extra_info": extra_info}
        ],
    }


def test_missing_file_exits_two(tmp_path):
    missing = str(tmp_path / "nope.json")
    proc = _run(missing, missing)
    assert proc.returncode == 2
    assert "cannot read BENCH file" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_invalid_json_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    proc = _run(str(bad), str(bad))
    assert proc.returncode == 2
    assert "not valid JSON" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_wrong_schema_exits_two(tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "other/9"}), encoding="utf-8")
    proc = _run(str(wrong), str(wrong))
    assert proc.returncode == 2
    assert "unexpected schema" in proc.stderr


def test_regression_still_exits_one(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    fresh.write_text(json.dumps(_export({"a_fast_ns": 300.0})), encoding="utf-8")
    proc = _run(str(base), str(fresh))
    assert proc.returncode == 1
    assert "REGRESSION" in proc.stdout


def test_within_tolerance_exits_zero(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    fresh.write_text(json.dumps(_export({"a_fast_ns": 110.0})), encoding="utf-8")
    proc = _run(str(base), str(fresh))
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def _service_export(extra_info):
    return {
        "schema": "repro-bench/1",
        "benchmarks": [{"name": "test_service_replay", "extra_info": extra_info}],
    }


def test_service_benchmark_is_gated(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    numbers = {"warm_p99_us": 1000.0, "warm_us_per_req": 500.0, "cold_p99_us": 9000.0}
    base.write_text(json.dumps(_service_export(numbers)), encoding="utf-8")
    slow = {**numbers, "warm_p99_us": 2000.0}
    fresh.write_text(json.dumps(_service_export(slow)), encoding="utf-8")
    proc = _run(str(base), str(fresh))
    assert proc.returncode == 1
    assert "warm_p99_us" in proc.stdout


def test_fail_line_shows_each_keys_own_unit(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    numbers = {"warm_p99_us": 1000.0, "warm_us_per_req": 500.0}
    base.write_text(json.dumps(_service_export(numbers)), encoding="utf-8")
    slow = {"warm_p99_us": 2000.0, "warm_us_per_req": 791.0}
    fresh.write_text(json.dumps(_service_export(slow)), encoding="utf-8")
    proc = _run(str(base), str(fresh))
    assert proc.returncode == 1
    assert "warm_us_per_req: 791us vs baseline 500us" in proc.stderr
    assert "warm_p99_us: 2000us vs baseline 1000us" in proc.stderr
    assert "ns" not in proc.stderr

    base.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    fresh.write_text(json.dumps(_export({"a_fast_ns": 300.0})), encoding="utf-8")
    proc = _run(str(base), str(fresh))
    assert "a_fast_ns: 300ns vs baseline 100ns" in proc.stderr


def test_service_cold_numbers_are_informational(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    numbers = {"warm_p99_us": 1000.0, "warm_us_per_req": 500.0, "cold_p99_us": 9000.0}
    base.write_text(json.dumps(_service_export(numbers)), encoding="utf-8")
    cold_slow = {**numbers, "cold_p99_us": 90000.0}  # 10x colder: not gated
    fresh.write_text(json.dumps(_service_export(cold_slow)), encoding="utf-8")
    proc = _run(str(base), str(fresh))
    assert proc.returncode == 0


# ----------------------------------------------------------------------
# --explain
# ----------------------------------------------------------------------
def test_explain_single_file_classifies_keys(tmp_path):
    bench = tmp_path / "bench.json"
    numbers = {"warm_p99_us": 1000.0, "warm_us_per_req": 500.0, "cold_p99_us": 9000.0}
    bench.write_text(json.dumps(_service_export(numbers)), encoding="utf-8")
    proc = _run("--explain", str(bench))
    assert proc.returncode == 0
    lines = {
        line.split()[0]: line for line in proc.stdout.splitlines() if "[" in line
    }
    assert "[gated]" in lines["warm_p99_us"]
    assert "[gated]" in lines["warm_us_per_req"]
    assert "[info]" in lines["cold_p99_us"]


def test_explain_never_fails_even_on_regression(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    fresh.write_text(json.dumps(_export({"a_fast_ns": 900.0})), encoding="utf-8")
    proc = _run("--explain", str(base), str(fresh))
    assert proc.returncode == 0
    assert "+800.0%" in proc.stdout
    assert "REGRESSION" not in proc.stdout


def test_explain_marks_key_asymmetry(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    fresh.write_text(
        json.dumps(_export({"b_fast_ns": 100.0})), encoding="utf-8"
    )
    proc = _run("--explain", str(base), str(fresh))
    assert proc.returncode == 0
    assert "(absent)" in proc.stdout


def test_gating_requires_exactly_two_files(tmp_path):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    proc = _run(str(bench))
    assert proc.returncode == 2
    assert "--explain" in proc.stderr
    proc = _run(str(bench), str(bench), str(bench))
    assert proc.returncode == 2


def test_real_committed_service_baseline_parses():
    committed = os.path.join(REPO_ROOT, "BENCH_service.json")
    proc = _run("--explain", committed)
    assert proc.returncode == 0
    assert "[gated]" in proc.stdout


# ----------------------------------------------------------------------
# --json: the same tables as one repro-bench-gate/1 document
# ----------------------------------------------------------------------
def test_json_gate_ok(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    fresh.write_text(json.dumps(_export({"a_fast_ns": 110.0})), encoding="utf-8")
    proc = _run(str(base), str(fresh), "--json")
    assert proc.returncode == 0
    document = json.loads(proc.stdout)
    assert document["schema"] == "repro-bench-gate/1"
    assert document["mode"] == "gate"
    assert document["ok"] is True
    assert document["regressions"] == 0
    (row,) = document["keys"]
    assert row == {
        "key": "a_fast_ns",
        "gated": True,
        "baseline": 100.0,
        "fresh": 110.0,
        "ratio": 1.1,
        "verdict": "ok",
    }


def test_json_gate_regression_keeps_exit_one(tmp_path):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(_export({"a_fast_ns": 100.0})), encoding="utf-8")
    fresh.write_text(json.dumps(_export({"a_fast_ns": 300.0})), encoding="utf-8")
    proc = _run(str(base), str(fresh), "--json")
    assert proc.returncode == 1
    document = json.loads(proc.stdout)  # stdout stays pure JSON
    assert document["ok"] is False
    assert document["regressions"] == 1
    assert document["keys"][0]["verdict"] == "REGRESSION"
    assert "FAIL" in proc.stderr  # the human summary moves to stderr


def test_json_explain_mode(tmp_path):
    bench = tmp_path / "bench.json"
    numbers = {"warm_p99_us": 1000.0, "cold_p99_us": 9000.0}
    bench.write_text(json.dumps(_service_export(numbers)), encoding="utf-8")
    proc = _run("--explain", str(bench), "--json")
    assert proc.returncode == 0
    document = json.loads(proc.stdout)
    assert document["mode"] == "explain"
    (entry,) = document["files"]
    keys = {k["key"]: k for k in entry["keys"]}
    assert keys["warm_p99_us"]["gated"] is True
    assert keys["cold_p99_us"]["gated"] is False
