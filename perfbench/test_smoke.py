"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Runs every workload untraced and traced for about a second each and checks
the output contract: every metric of BENCHMARK.json printed with its unit,
correct results, traced self times that fit in the traced wall time, exact
counts and digests that repeat for a seed, and gates that also pass on the
held-out seed.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DEFAULT_SEED, HELD_OUT_SEED = 1729, 4242
COUNTS = ("classical_greedy.steps", "big_step_greedy.steps", "big_step_greedy.candidates",
          "big_step_greedy.pair_bytes_computed", "generate.expected_draws")


@lru_cache(maxsize=None)
def run(workload: str, trace: int, seed: int = DEFAULT_SEED):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    mode = "traced" if trace else "e2e"
    record = json.loads((HERE / "out" / f"BENCH_{workload}_{mode}_s{seed}.json").read_text())
    return lines, json.loads(lines[-1]), record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines, result, _ = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for metric in wanted:
        assert printed[metric["name"]] == metric["unit"]
    assert printed["error_rate"] == "ratio"
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_fit_in_the_traced_wall_time(workload):
    _, _, record = run(workload, 1)
    info = record["info"]
    self_s = info["self_s"]
    assert sum(self_s.values()) <= info["traced_wall_s"] * (1 + 1e-9)
    assert all(v >= 0 for v in self_s.values())
    # the scpkit layers, not the benchmark's own loop, take most of the time
    layers = sum(v for name, v in self_s.items() if not name.startswith("perfbench."))
    assert layers >= 0.5 * info["traced_wall_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_digest_repeat_for_a_seed(workload):
    _, first, first_record = run(workload, 1)
    run.cache_clear()
    _, again, again_record = run(workload, 1)
    for name in COUNTS:
        assert first["metrics"][name] == again["metrics"][name]
    assert first_record["info"]["digest"] == again_record["info"]["digest"]
    _, held_out, held_out_record = run(workload, 1, HELD_OUT_SEED)
    assert held_out["correct"] is True
    assert held_out_record["info"]["digest"] != first_record["info"]["digest"]


def test_every_per_layer_metric_is_measured_on_some_workload():
    for metric in BENCH["per_layer"]:
        values = [run(w, 1)[1]["metrics"][metric["name"]]["value"] for w in WORKLOADS]
        assert any(v != 0 for v in values), metric["name"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [*BENCH["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "correct" not in done.stdout
