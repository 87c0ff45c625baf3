"""Smoke test for the benchmark: each workload at a tiny size, untraced and
traced, must report every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench/test_benchmark.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.prepare()

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DETERMINISTIC = (
    "invocations_per_token", "mean_accepted_block_size", "token_accuracy", "greedy_match_rate",
)


def tiny_run(name, trace, seed=3):
    result, lines = run.run(name, seed, 0.0, trace, sizes=wl.TINY)
    json.loads(json.dumps(result))  # the last line must be plain JSON
    return result, lines


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_every_metric_reported_with_its_unit(name, trace):
    result, lines = tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), metric
        if not trace:
            assert entry["value"] > 0, metric
    text = "\n".join(lines)
    assert "error_rate 0 ratio" in text and '"nproc"' in text
    assert ("train_steps_per_s" in text) == (name == "train" and not trace)


def test_counts_repeat_for_the_same_seed():
    first, _ = tiny_run("neural-decode", False)
    second, _ = tiny_run("neural-decode", False)
    for metric in DETERMINISTIC:
        assert first["metrics"][metric] == second["metrics"][metric]
    rates = [tiny_run("synthetic-engine", True)[0]["metrics"] for _ in range(2)]
    for metric in rates[0]:
        if metric.startswith("engine.accept_rate."):
            assert rates[0][metric] == rates[1][metric]


def test_exact_blockwise_matches_greedy_on_the_checkpoint():
    result, _ = tiny_run("neural-decode", False)
    assert result["metrics"]["greedy_match_rate"]["value"] == 1.0


def test_stale_checkpoint_fails_setup(tmp_path, monkeypatch):
    record = json.loads(wl.CHECKPOINT_RECORD.read_text())
    record["probes"][0]["greedy_output"][0] += 1
    stale = tmp_path / "record.json"
    stale.write_text(json.dumps(record))
    monkeypatch.setattr(wl, "CHECKPOINT_RECORD", stale)
    with pytest.raises(RuntimeError, match="does not reproduce"):
        wl.load_checked_checkpoint()


def test_failed_check_is_counted():
    request = wl.repeat_requests(wl.load_checked_checkpoint()[0], 5, 1)[0]
    results = {s: wl.decode(request, s)[0] for s in wl.SCHEMES}
    assert wl.check_request(request, results) == []
    broken = dict(results, combined=results["greedy"])
    assert wl.check_request(request, broken)


def test_command_line_prints_result_last():
    cmd = SPEC["command"] + ["--workload", "synthetic-engine", "--seed", "2", "--seconds", "0",
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = SPEC["command"] + ["--workload", "neural-decode", "--seed", "1", "--seconds", "1",
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
