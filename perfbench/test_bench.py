"""Self-test of the benchmark: its output checks catch a broken program,
its spans nest, and it refuses to run without the program's sources.

    python3 -m pytest perfbench/test_bench.py -q

Passes run in-process at p = 5 on shrunken inputs, so the whole file
takes well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import passes  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from p5tensor import invariants, pcgroup  # noqa: E402

SMALL = {"verify-p7": {"prime": 5},
         "rows-p11": {"prime": 5},
         "query-mix": {"prime": 5, "scale": 0.1}}


def small_pass(workload, trace=0):
    spec = {"workload": workload, "seed": 7, "check": 1, "trace": trace}
    return passes.run_pass(spec | SMALL[workload])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_correct_program_passes_every_check(workload):
    out = small_pass(workload)
    assert out["attempted"] > 0
    assert out["failed"] == 0


def test_wrong_multiply_raises_error_rate(monkeypatch):
    real = pcgroup.multiply
    g5 = pcgroup.generator(5)
    monkeypatch.setattr(pcgroup, "multiply",
                        lambda a, b, P: real(real(a, b, P), g5, P))
    out = small_pass("query-mix")
    assert out["failed"] > 0


def test_wrong_verify_outcome_raises_error_rate(monkeypatch):
    real = invariants.nilpotency_class
    monkeypatch.setattr(invariants, "nilpotency_class",
                        lambda P: real(P) + 1)
    out = small_pass("verify-p7")
    assert out["failed"] == out["attempted"]


@pytest.mark.parametrize("workload", ["verify-p7", "query-mix"])
def test_spans_nest_and_self_times_fit_in_the_wall(workload):
    out = small_pass(workload, trace=1)
    spans = out["spans"]
    assert spans
    for i, (name, start, end, parent, _) in enumerate(spans):
        assert start <= end
        if parent >= 0:
            assert parent < i
            assert spans[parent][1] <= start and end <= spans[parent][2]
    layers = tracer.summarize([(spans, 1.0)])
    assert all(s["self_s"] >= -1e-9 for s in layers.values())
    # probes run between the timed parts, some of them inside cli.main
    elapsed = out["raw_wall_s"] + sum(out["probes_s"])
    assert sum(s["self_s"] for s in layers.values()) <= elapsed
    assert invariants.center is pcgroup.center  # originals are restored


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.END_TO_END[m["name"]]
               for m in bench["end_to_end"])
    per_layer = tracer.layer_metrics({}, 1, 1.0, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(per_layer)
    assert all(m["unit"] == tracer.unit_of(m["name"])
               for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
