#!/usr/bin/env python3
"""Smoke test for the benchmark: tiny inputs, every workload, timed and traced.

    python3 perfbench/smoke_test.py

Builds vqbench the way run.py does, then runs each workload BENCHMARK.json
names with --tiny for one second, once untraced and once traced. Fails
unless every run exits 0 with error_rate 0, reports exactly the metrics
BENCHMARK.json names with their units, and the traced run's residual stays
within the bound the benchmark states.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def run_once(binary, workload, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    summaries = [json.loads(line[len("summary "):])
                 for line in lines if line.startswith("summary ")]
    assert len(summaries) == 1, f"{label}: no summary line"
    return label, json.loads(lines[-1]), summaries[0]


def check(bench, label, result, summary, trace):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, label
    assert result["attempted"] >= 1, label
    assert summary["error_rate"] == 0, label
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(expected), \
        f"{label}: metric sets differ: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, f"{label}: {name} has unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{label}: {name}"
    if trace:
        residual = metrics["trace.residual_share"]["value"]
        assert residual <= summary["residual_bound"], f"{label}: residual share {residual}"


def main():
    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    binary = run.build()
    assert binary is not None, "build failed"
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            label, result, summary = run_once(binary, workload, trace)
            check(bench, label, result, summary, trace)
            print(f"ok {label}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
