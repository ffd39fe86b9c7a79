"""causalcdr benchmark: time the CLI's train and evaluate paths on fixed
workloads, check every operation's outputs, print one JSON result line.

    python3 perfbench/run.py --workload ood_train --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run it from the repository root. Load is a closed loop with one client:
this process runs one operation at a time until the next one would
overrun --seconds (the first QUALITY_OPS always run). --trace 0 reports the
end-to-end metrics; --trace 1 runs the same operations untraced and then
traced and reports the per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# The quality metrics average the first N operations of a run, and those
# always run, so the figures for a seed do not depend on host speed.
QUALITY_OPS = {"ood_train": 3, "wide_train": 2, "csv_rescore": 1}
RESULTS_LOG = ROOT / ".bench_results" / "runs.jsonl"
WORK_ROOT = ROOT / ".bench_work"

END_TO_END = {            # name -> unit
    "setup_s": "s",
    "command_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_hr10": "ratio",
    "test_ndcg10": "ratio",
}

# Op types the diffcore tape records at this commit; any other op type is
# folded into `diffcore.other.*`.
OPS = ("add", "sub", "mul", "scale", "add_scalar", "matmul", "matmul_t",
       "gather_cols", "vconcat", "hconcat", "slice_rows", "slice_cols", "relu",
       "sigmoid", "softmax_pair", "bce_sum", "sq_l2", "l1", "l2_norm",
       "log_scalar", "grad_reverse", "acyclicity", "other")

COUNT_METRICS = ("data.build_eval_candidates_lists",
                 "data.sample_train_negatives_examples", "training.steps",
                 "training.epochs", "model.score_candidates_calls",
                 "evaluation.lists", "matrixio.bytes")


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> unit, in reporting order."""
    from spans import METRIC_SPANS

    units = {name: "s" for name in METRIC_SPANS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["diffcore.nodes_per_step"] = "count"
    for op in OPS:
        units[f"diffcore.{op}.nodes_per_step"] = "count"
        units[f"diffcore.{op}.fwd_s"] = "s"
        units[f"diffcore.{op}.bwd_s"] = "s"
    units["tracing.overhead_s"] = "s"
    return units


def fingerprint_keys() -> list:
    """Counts that must repeat exactly between traced runs of one seed."""
    return list(COUNT_METRICS) + ["diffcore.nodes_per_step"] + [
        f"diffcore.{op}.nodes_per_step" for op in OPS]


# ---------------------------------------------------------------------------
# environment and bookkeeping

def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _cpu_jiffies():
    """Aggregate CPU counters of /proc/stat (user ... steal), or None."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0].split()
    except (OSError, IndexError):
        return None
    return [int(x) for x in first[1:9]]


def steal_share(before, after):
    """Share of all CPU time the hypervisor gave to others during the run:
    a direct sign of a noisy host."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "platform": platform.platform()}


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(values)
    index = len(ordered) - 11
    if index < 0:
        return None
    return round(100 * (index + 1) / len(ordered)), ordered[index]


# ---------------------------------------------------------------------------
# the measured loop

def timed_setup(workload: str, seed: int, scale: str, work: Path) -> tuple:
    """Run the set-up SETUP_REPEATS times, each in a fresh interpreter that
    imports causalcdr and writes the workload's inputs, timed inside that
    interpreter (make_inputs.py). The inputs of the first repeat are used
    and the others deleted."""
    samples = []
    for repeat in range(SETUP_REPEATS):
        target = work / f"inputs_{repeat}"
        proc = subprocess.run([sys.executable, str(HERE / "make_inputs.py"),
                               workload, str(seed), scale, str(target)],
                              check=True, stdout=subprocess.PIPE, text=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        if repeat:
            shutil.rmtree(target)
    return samples, work / "inputs_0"


class OpRecord:
    def __init__(self, index: int):
        self.index = index
        self.result = None
        self.error = None
        self.trace = None
        self.peak_rss_mb = None   # process peak RSS when the operation ended


def run_phase(workload, budget_s: float, tracer=None, min_ops: int = 1) -> list:
    """Operations one at a time until the next would overrun budget_s; the
    first min_ops always run."""
    import spans
    from workloads import CheckFailure

    records = []
    start = time.perf_counter()
    while True:
        record = OpRecord(len(records))
        gc.collect()
        op_start = time.perf_counter()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            record.result, check = workload.run(record.index)
        except Exception as exc:  # any exception fails the operation
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.uninstall()
        record.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spans.assert_clean()
        if record.error is None:
            if tracer is not None:
                record.trace = snapshot(tracer)
            try:
                check()
                if tracer is not None and record.trace["training.steps"] != \
                        record.result.work and workload.name != "csv_rescore":
                    raise CheckFailure(
                        f"traced {record.trace['training.steps']} optimizer steps, "
                        f"artifacts imply {record.result.work}")
            except Exception as exc:
                record.error = f"{type(exc).__name__}: {exc}"
            del check   # the closure holds the operation's dataset and split
        records.append(record)
        status = "ok" if record.error is None else f"FAILED {record.error}"
        print(f"  op {record.index}: {time.perf_counter() - op_start:.3f} s "
              f"{'traced ' if tracer else ''}{status}", flush=True)
        elapsed = time.perf_counter() - start
        typical = elapsed / len(records)
        if len(records) >= min_ops and elapsed + typical > budget_s:
            return records


def snapshot(tracer) -> dict:
    """Per-layer values of the operation the tracer just watched."""
    from spans import METRIC_SPANS

    values = {name: tracer.self_s.get(span, 0.0)
              for name, span in METRIC_SPANS.items()}
    for name in COUNT_METRICS:
        values[name] = tracer.counts.get(name, 0)
    steps = values["training.steps"]
    nodes = {op: 0 for op in OPS}
    fwd = {op: 0.0 for op in OPS}
    bwd = {op: 0.0 for op in OPS}
    for table, source in ((nodes, tracer.op_nodes), (fwd, tracer.op_fwd_s),
                          (bwd, tracer.op_bwd_s)):
        for op, value in source.items():
            table[op if op in table else "other"] += value
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    values["diffcore.nodes_per_step"] = per_step(sum(nodes.values()))
    for op in OPS:
        values[f"diffcore.{op}.nodes_per_step"] = per_step(nodes[op])
        values[f"diffcore.{op}.fwd_s"] = fwd[op]
        values[f"diffcore.{op}.bwd_s"] = bwd[op]
    values["_raw_self_s"] = dict(tracer.raw_self_s)
    return values


def _ok(records):
    return [r for r in records if r.error is None]


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean_or_zero(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end_metrics(records, setup_samples, quality_ops: int) -> dict:
    ok = _ok(records)
    scored = _ok(records[:quality_ops])
    return {
        "setup_s": statistics.median(setup_samples),
        "command_s": _median_or_zero(r.result.wall_s for r in ok),
        "throughput_per_s": (sum(r.result.work for r in ok)
                             / sum(r.result.work_s for r in ok)) if ok else 0.0,
        "peak_rss_mb": records[0].peak_rss_mb,
        "test_hr10": _mean_or_zero(r.result.test["HR@10"] for r in scored),
        "test_ndcg10": _mean_or_zero(r.result.test["NDCG@10"] for r in scored),
    }


def per_layer_values(untraced, traced) -> dict:
    """Counts of the first traced operation (deterministic for a seed);
    times as medians over the traced operations."""
    ok = [r for r in traced if r.trace is not None]
    names = per_layer_metrics()
    values = {}
    for name, unit in names.items():
        if name == "tracing.overhead_s":
            continue
        if unit == "count":
            values[name] = ok[0].trace[name] if ok else 0
        else:
            values[name] = _median_or_zero(r.trace[name] for r in ok)
    pairs = [(t.result.wall_s - u.result.wall_s) for u, t in zip(untraced, traced)
             if t.error is None and u.error is None]
    values["tracing.overhead_s"] = _median_or_zero(pairs)
    return values


# ---------------------------------------------------------------------------
# reporting

def code_digest() -> str:
    """Digest of the measured code: causalcdr's sources and the benchmark's."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "causalcdr").rglob("*.py")) + \
            sorted(HERE.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


LOG_KEY = ("workload", "seed", "trace", "scale", "code")


def append_log(entry: dict) -> list:
    """Append this run to the results log; return the logged runs of the
    same workload, seed, mode, scale and code, this one included, so the
    spread across them is the host's noise alone."""
    RESULTS_LOG.parent.mkdir(parents=True, exist_ok=True)
    with open(RESULTS_LOG, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")
    same = []
    for line in RESULTS_LOG.read_text(encoding="utf-8").splitlines():
        past = json.loads(line)
        if all(past.get(k) == entry[k] for k in LOG_KEY):
            same.append(past)
    return same


def print_spread(runs: list, names) -> None:
    print(f"across {len(runs)} logged run(s) of this workload, seed and code "
          f"(q1 / median / q3, IQR as a share of the median):")
    for name in names:
        values = [run["metrics"][name] for run in runs if name in run["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        share = (q3 - q1) / abs(med) if med else float("nan")
        print(f"  {name:40s} {q1:.6g} / {med:.6g} / {q3:.6g}  IQR {share:.1%}")
    pooled = [wall for run in runs for wall in run["command_samples"]]
    tail = tail_percentile(pooled)
    if tail:
        print(f"  operation wall time over {len(pooled)} logged operations: "
              f"median {statistics.median(pooled):.4f} s, p{tail[0]} {tail[1]:.4f} s")


def report_end_to_end(metrics, records, setup_samples) -> None:
    walls = [r.result.wall_s for r in _ok(records)]
    failed = sum(1 for r in records if r.error is not None)
    for name, unit in END_TO_END.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_frac = {failed / len(records):.6g} ({failed} of {len(records)})")
    q1, med, q3 = quartiles(walls or [0.0])
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile has 10 samples beyond it")
    print(f"command_s over {len(walls)} operation(s): q1 {q1:.4f} median {med:.4f} "
          f"q3 {q3:.4f} s; {tail_text}")
    q1, med, q3 = quartiles(setup_samples)
    print(f"setup_s over {len(setup_samples)} set-ups: q1 {q1:.4f} median {med:.4f} "
          f"q3 {q3:.4f} s")


def report_per_layer(values, traced, workload: str, seed: int, scale: str) -> None:
    for name, unit in per_layer_metrics().items():
        print(f"{name} = {values[name]:.6g} {unit}")
    ok = [r for r in traced if r.trace is not None]
    if ok:
        print("self time of every span, first traced operation:")
        raw = ok[0].trace["_raw_self_s"]
        for span, seconds in sorted(raw.items(), key=lambda kv: -kv[1]):
            print(f"  {span:45s} {seconds:.4f} s")
    stored = json.loads((HERE / "fingerprints.json").read_text(encoding="utf-8"))
    entry = stored.get(f"{workload}:{seed}") if scale == "full" else None
    if entry is None:
        print("fingerprint: none stored for this workload and seed")
        return
    differ = [k for k in fingerprint_keys() if entry.get(k) != values[k]]
    print("fingerprint: " + ("matches the stored counts" if not differ else
                             "differs from the stored counts in " + ", ".join(differ)))


# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in turn, one process each; the last line sums them."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scale", args.scale],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "causalcdr" / "__init__.py").is_file():
        print(f"no causalcdr sources under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Workload

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    load_before, jiffies_before = _loadavg(), _cpu_jiffies()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_samples, inputs = timed_setup(args.workload, args.seed, args.scale, work)
        workload = Workload(args.workload, args.seed, args.scale, inputs)
        if args.trace == 0:
            records = run_phase(workload, args.seconds,
                                min_ops=QUALITY_OPS[args.workload])
        else:
            from spans import Tracer

            untraced = run_phase(workload, args.seconds / 2)
            records = run_phase(workload, args.seconds / 2, Tracer())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    env["loadavg_before"] = load_before
    env["loadavg_after"] = _loadavg()
    env["cpu_steal_share"] = steal_share(jiffies_before, _cpu_jiffies())
    print("environment: " + json.dumps(env))
    all_records = records if args.trace == 0 else untraced + records
    for r in all_records:
        if r.error is not None:
            print(f"operation {r.index} failed: {r.error}")
    if args.trace == 0:
        metrics = end_to_end_metrics(records, setup_samples,
                                     QUALITY_OPS[args.workload])
        units = END_TO_END
        report_end_to_end(metrics, records, setup_samples)
    else:
        metrics = per_layer_values(untraced, records)
        units = per_layer_metrics()
        report_per_layer(metrics, records, args.workload, args.seed, args.scale)

    failed = sum(1 for r in all_records if r.error is not None)
    result = {"correct": failed == 0, "attempted": len(all_records),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    runs = append_log({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "scale": args.scale,
                       "code": code_digest(), "env": env,
                       "correct": result["correct"], "metrics": metrics,
                       "command_samples": [r.result.wall_s for r in _ok(records)],
                       "setup_samples": setup_samples})
    print_spread(runs, units)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
