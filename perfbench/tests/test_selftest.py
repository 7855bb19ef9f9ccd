"""Self-test of the benchmark: every workload once at a tiny size.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Counts derived from trace lengths, epochs run and file sizes: they must
# repeat bit for bit between runs of one seed.
EXACT_COUNTS = ("identify.dtw_pairs", "identify.dp_cells", "neural.epochs", "tracemodel.corpus_mb")


def bench(workload, trace, seed=3, cwd=ROOT):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = result_of(bench(workload, trace=0))
    assert units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first = result_of(bench(workload, trace=1))
    second = result_of(bench(workload, trace=1))
    assert units(first) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    values = {name: m["value"] for name, m in first["metrics"].items()}
    for name, unit in units(first).items():
        if unit in ("s", "ms", "us", "ns"):
            assert values[name] > 0, name
    # self shares and the uncovered share split the traced calls' time
    shares = sum(v for name, v in values.items() if name.endswith("self_share"))
    assert shares + values["trace.uncovered_share"] == pytest.approx(1.0)

    spans = os.path.join(ROOT, ".perfbench", f"spans-{workload}-seed3.jsonl")
    with open(spans, encoding="utf-8") as fh:
        layers = {json.loads(line)["name"].split(".")[0] for line in fh}
    assert layers == {name.split(".")[0] for name in values if name.endswith("self_share")}


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
