"""Self-test of the system benchmark, at about 1% scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/system -q``.  It is
not part of tier-1 (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SCALE = 0.01
#: op kinds each workload issues, as printed in the end-to-end table
OP_METRICS = {
    "paper-point": ("insert_p50_us", "insert_p99_us"),
    "bulk-columnar": ("bulk_p50_ms", "bulk_p99_ms"),
    "rule-churn": (
        "insert_p50_us", "insert_p99_us", "update_p50_us", "update_p99_us",
        "rule_change_p50_us", "rule_change_p99_us",
    ),
    "disk-maintained": ("bulk_p50_ms", "bulk_p99_ms", "rule_change_p50_us", "rule_change_p99_us", "disk_mb"),
}


def run_bench(workload: str, trace: int, seed: int = 5, script: Path = HERE / "run.py"):
    child = subprocess.run(
        [
            sys.executable, str(script), "--workload", workload, "--seed", str(seed),
            "--seconds", "10", "--scale", str(SCALE), "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    return child.returncode, child.stdout.splitlines()


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == bench.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_prints_every_end_to_end_metric(workload):
    code, lines = run_bench(workload, trace=0)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 10
    assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line.startswith("  ")}
    for name, unit in bench.END_TO_END.items():
        assert table[name][1] == unit
    for name in OP_METRICS[workload] + ("error_rate",):
        assert name in table
    assert float(table["error_rate"][0]) == 0.0


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_trace_is_repeatable(workload):
    runs = [run_bench(workload, trace=1) for _ in range(2)]
    results = []
    for code, lines in runs:
        assert code == 0
        result = json.loads(lines[-1])
        # correct also means the layer self times summed to every op span
        assert result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == bench.PER_LAYER
        results.append(result["metrics"])
    assert results[0]["rules.firings"] == results[1]["rules.firings"]
    spans = json.loads((bench.OUT / f"spans-{workload}-seed5.json").read_text())
    assert spans["spans"] and spans["fields"] == ["name", "start", "end", "parent", "op"]


class DropOne:
    """Matcher wrapper that drops one predicate from every non-empty answer."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def match(self, relation, tup):
        return self._inner.match(relation, tup)[1:]

    def match_batch(self, relation, tuples):
        return [row[1:] for row in self._inner.match_batch(relation, tuples)]


def test_planted_wrong_answer_fails_the_run(capsys):
    args = argparse.Namespace(
        workload="bulk-columnar", seed=5, seconds=10.0, trace=0, scale=SCALE, child=True
    )

    def plant(engine):
        engine.matcher = DropOne(engine.matcher)

    assert bench.run_child(args, plant=plant) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks" / "system"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    code, lines = run_bench("paper-point", trace=0, script=copy / "run.py")
    assert code != 0
    assert not lines or not lines[-1].startswith("{")
