"""Tests of the benchmark itself: tiny-shape smoke runs of every workload,
the self-time arithmetic of nested spans, and wrapper removal."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_nested_spans():
    # cli.prepare [0, 10] > data.generate_split [1, 8] > data.split_iid [2, 6]
    # > data.build_eval_candidates [3, 5]; split_iid has no metric of its own.
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6, 8, 10]))
    for name in ("cli.prepare", "data.generate_split", "data.split_iid",
                 "data.build_eval_candidates"):
        tracer.enter(name)
    for _ in range(4):
        tracer.exit()
    assert tracer.self_s["data.build_eval_candidates"] == 2
    assert tracer.self_s["data.generate_split"] == 5   # 7 minus the 2 below
    assert tracer.self_s["cli.prepare"] == 3           # 10 minus the 7 below
    assert "data.split_iid" not in tracer.self_s
    assert tracer.raw_self_s["data.split_iid"] == 2
    assert tracer.raw_self_s["data.generate_split"] == 3
    assert sum(tracer.self_s.values()) == 10


def test_primitive_spans_are_reported_per_op():
    # model.total_loss [0, 10] > diffcore.add_n [1, 9] > diffcore.add [2, 4]
    # (records "add"), then the backward closure diffcore.add.bwd [5, 6].
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
    tracer.enter("model.total_loss")
    tracer.enter("diffcore.add_n")
    tracer.enter("diffcore.add")
    tracer.note_record("add")
    tracer.exit()
    tracer.enter("diffcore.add.bwd")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    assert tracer.op_nodes == {"add": 1}
    assert tracer.op_fwd_s == {"add": 2}
    assert tracer.op_bwd_s == {"add": 1}
    assert tracer.self_s["model.total_loss"] == 7   # add_n folds into it


def test_tracer_removes_its_wrappers(tmp_path):
    originals = [(owner, attr, value) for owner, attr, value in spans._targets()]
    workloads.generate_inputs("ood_train", 3, "tiny", tmp_path)
    workload = workloads.Workload("ood_train", 3, "tiny", tmp_path)
    tracer = spans.Tracer()
    with tracer:
        assert len(spans.wrapped_targets()) == len(originals)
        result, check = workload.run(0)
    assert spans.wrapped_targets() == []
    for owner, attr, value in originals:
        assert vars(owner)[attr] is value, f"{owner}.{attr} was not restored"
    check()
    assert tracer.counts["training.steps"] == result.work > 0
    assert tracer.op_nodes["acyclicity"] == result.work


def test_quality_metrics_use_only_the_first_operations():
    records = []
    for index, hr in enumerate((0.2, 0.4, 0.9)):
        record = bench_run.OpRecord(index)
        record.result = workloads.OpResult(wall_s=1.0, work=10, work_s=1.0,
                                           test={"HR@10": hr, "NDCG@10": hr / 2})
        records.append(record)
    metrics = bench_run.end_to_end_metrics(records, [0.1], quality_ops=2)
    assert metrics["test_hr10"] == pytest.approx(0.3)
    assert metrics["test_ndcg10"] == pytest.approx(0.15)
    assert metrics["command_s"] == 1.0      # timing still uses every operation


def test_results_log_pools_only_the_same_seed_and_code(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "RESULTS_LOG", tmp_path / "runs.jsonl")
    base = {"workload": "ood_train", "seed": 1, "trace": 0, "scale": "full",
            "code": "abc", "metrics": {}}
    bench_run.append_log(base)
    bench_run.append_log({**base, "seed": 2})
    bench_run.append_log({**base, "code": "def"})
    assert len(bench_run.append_log(base)) == 2


def test_benchmark_json_names_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        bench_run.per_layer_metrics()


def _checkout(tmp_path, with_sources=True) -> Path:
    root = tmp_path / "checkout"
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(REPO / "BENCHMARK.json", root / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(REPO / "src", root / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return root


def _run(root: Path, workload: str, trace: int, seed: int = 2):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_of_each_workload(tmp_path, workload):
    root = _checkout(tmp_path)
    proc = _run(root, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench_run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not any((root / ".bench_work").iterdir())


@pytest.mark.parametrize("workload", ("ood_train", "csv_rescore"))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    root = _checkout(tmp_path)
    counts = []
    for _ in range(2):
        proc = _run(root, workload, trace=1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stdout
        assert set(result["metrics"]) == set(bench_run.per_layer_metrics())
        counts.append({k: result["metrics"][k]["value"]
                       for k in bench_run.fingerprint_keys()})
    assert counts[0] == counts[1]
    if workload == "ood_train":
        assert counts[0]["training.steps"] > 0
        assert counts[0]["diffcore.nodes_per_step"] > 0
    else:
        assert counts[0]["evaluation.lists"] > 0
        assert counts[0]["training.steps"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    root = _checkout(tmp_path, with_sources=False)
    proc = _run(root, "ood_train", trace=0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
