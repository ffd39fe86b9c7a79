"""Leave-one-out ranking evaluation and multi-seed reporting.

Every held-out positive, column 0 of its candidate list, is ranked
against its 99 sampled negatives. The rank is one plus the candidates
that score strictly higher, plus the negatives tied with the positive
that come before it in the tie order. For candidate lists that order is
data.tiebreak_key, a hash of the lists' tiebreak seed, the user and the
item, so a constant scorer lands the positive uniformly across all 100
ranks; keys are computed only for the lists that hold a tie.
rank_metrics, the reference for one ordered list with the positive at
any position, keeps its own count, which breaks ties by list position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import causal, data, diffcore as dc, model

DEFAULT_KS = (5, 10)
EVAL_BLOCK_LISTS = 16  # candidate lists scored per forward pass
# NDCG's discount of each rank r of a candidate list, 1 / log2(r + 1)
_DISCOUNTS = (0.0,) + tuple(1.0 / math.log2(rank + 1)
                            for rank in range(1, 2 + data.N_EVAL_NEGATIVES))


def metric_key(metric: str, k: int) -> str:
    return f"{metric.upper()}@{k}"


def rank_metrics(scores, positive_position: int, k: int) -> tuple:
    """(hit, ndcg) for one candidate list of exactly 100 scores, ties
    broken by list position.

    hit is 1 when the positive ranks in the top k; ndcg discounts the hit
    by 1/log2(rank + 1) and is 0 otherwise.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (1 + data.N_EVAL_NEGATIVES,):
        raise ValueError(f"expected {1 + data.N_EVAL_NEGATIVES} scores, "
                         f"got shape {scores.shape}")
    if not 0 <= positive_position < len(scores):
        raise ValueError(f"positive position {positive_position} outside [0, {len(scores)})")
    positive = scores[positive_position]
    rank = (1 + np.count_nonzero(scores > positive)
            + np.count_nonzero(scores[:positive_position] == positive))
    return (1, _DISCOUNTS[rank]) if rank <= k else (0, 0.0)


def evaluate_candidates(candidates: data.CandidateLists, scorer, ks=DEFAULT_KS) -> dict:
    """Average hit and ndcg of each list's positive, column 0, ties broken
    by data.tiebreak_key. scorer maps a block of users (L,) and their
    candidate items (L, 100) to scores (L, 100); it sees EVAL_BLOCK_LISTS
    lists at a time, in list order."""
    if not candidates:
        raise ValueError("no candidate lists to evaluate")
    n_lists, width = len(candidates), 1 + data.N_EVAL_NEGATIVES
    if candidates.items.shape != (n_lists, width):
        raise ValueError(f"{n_lists} candidate lists hold items of shape "
                         f"{candidates.items.shape}, expected ({n_lists}, {width})")
    seed = candidates.tiebreak_seed
    ranks = []
    for start in range(0, n_lists, EVAL_BLOCK_LISTS):
        stop = start + EVAL_BLOCK_LISTS
        users, items = candidates.users[start:stop], candidates.items[start:stop]
        scores = np.asarray(scorer(users, items), dtype=np.float64)
        if scores.shape != items.shape:
            raise ValueError(f"scorer returned shape {scores.shape} for "
                             f"candidates of shape {items.shape}")
        block = 1 + np.count_nonzero(scores > scores[:, :1], axis=1)
        tied = scores[:, 1:] == scores[:, :1]
        for r in np.flatnonzero(tied.any(axis=1)).tolist():
            user = int(users[r])
            key = data.tiebreak_key(seed, user, int(items[r, 0]))
            block[r] += sum(data.tiebreak_key(seed, user, item) < key
                            for item in items[r, 1:][tied[r]].tolist())
        ranks.append(block)
    ranks = np.concatenate(ranks)
    hits = {k: ranks[ranks <= k].tolist() for k in ks}
    metrics = {metric_key("hr", k): len(hits[k]) / n_lists for k in ks}
    for k in ks:
        ndcg = 0.0
        for rank in hits[k]:  # summed left to right, in list order
            ndcg += _DISCOUNTS[rank]
        metrics[metric_key("ndcg", k)] = ndcg / n_lists
    return metrics


def evaluate(params: model.ModelParams, adjacency: np.ndarray | None,
             split, ks=DEFAULT_KS, part: str = "test") -> dict:
    """Score every stored candidate list with the model's training forward
    pass on a value-only tape and average the ranking metrics; adjacency
    None evaluates the no-causal variant."""
    if part not in ("test", "validation"):
        raise ValueError(f"unknown part {part!r}; expected 'test' or 'validation'")
    candidates = split.eval_candidates if part == "test" else split.val_candidates
    if not candidates:
        raise ValueError(f"split has no {part} candidates")
    tape = dc.Tape(grad=False)
    nodes = params.register(tape)
    a_pref = (causal.preference_block(tape.constant(adjacency), params.dims.k)
              if adjacency is not None else None)

    def scorer(users, items):
        return model.score_candidates(nodes, users, items, a_pref)

    return evaluate_candidates(candidates, scorer, ks)


@dataclass
class MetricsReport:
    mean: dict
    std: dict
    n_runs: int
    degradation_pct: dict | None = None  # vs a paired IID report


def aggregate_runs(runs) -> MetricsReport:
    """Per-metric mean and sample standard deviation over seeds."""
    if not runs:
        raise ValueError("need at least one run")
    keys = list(runs[0])
    for run in runs:
        if set(run) != set(keys):
            raise ValueError("runs carry different metric sets")
    mean = {}
    std = {}
    for key in keys:
        values = np.array([run[key] for run in runs], dtype=np.float64)
        if len(values) == 1 or np.all(values == values[0]):
            mean[key] = float(values[0])
            std[key] = 0.0
        else:
            mean[key] = float(values.mean())
            std[key] = float(values.std(ddof=1))
    return MetricsReport(mean=mean, std=std, n_runs=len(runs))


def degradation_report(iid: MetricsReport, ood: MetricsReport) -> MetricsReport:
    """Attach (IID - OOD) / IID * 100 per metric to the OOD report;
    positive numbers mean the metric degraded. None where IID is zero."""
    if set(iid.mean) != set(ood.mean):
        raise ValueError("reports carry different metric sets")
    degradation = {}
    for key, iid_value in iid.mean.items():
        if iid_value == 0.0:
            degradation[key] = None
        else:
            degradation[key] = (iid_value - ood.mean[key]) / iid_value * 100.0
    return MetricsReport(mean=dict(ood.mean), std=dict(ood.std),
                         n_runs=ood.n_runs, degradation_pct=degradation)


# ---------------------------------------------------------------------------
# exports

def metrics_csv_lines(report: MetricsReport, setting: str,
                      header_meta: str | None = None,
                      value_format: str = "{:.6f}") -> list:
    lines = []
    if header_meta:
        lines.append(f"# {header_meta}")
    lines.append("setting,metric,k,mean,std,degradation_pct")
    for key in sorted(report.mean):
        metric, k = key.split("@")
        deg = ""
        if report.degradation_pct is not None:
            value = report.degradation_pct.get(key)
            deg = "n/a" if value is None else f"{value:.2f}"
        mean = value_format.format(report.mean[key])
        std = value_format.format(report.std[key])
        lines.append(f"{setting},{metric},{k},{mean},{std},{deg}")
    return lines


def write_metrics_csv(report: MetricsReport, setting: str, path,
                      header_meta: str | None = None,
                      value_format: str = "{:.6f}") -> None:
    """value_format "{!r}" stores full-precision floats that survive a
    parse-and-reaggregate round trip byte for byte."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(metrics_csv_lines(report, setting, header_meta,
                                             value_format)) + "\n")


def metrics_markdown(reports: dict, ks=DEFAULT_KS) -> str:
    """One row per setting, mirroring the paper-style layout: means with
    the degradation percentage in parentheses, a (+/-std) row beneath."""
    columns = [metric_key(m, k) for m in ("hr", "ndcg") for k in ks]
    header = "| setting | " + " | ".join(columns) + " |"
    rule = "|---" * (len(columns) + 1) + "|"
    lines = [header, rule]
    for setting, report in reports.items():
        cells = []
        for key in columns:
            cell = f"{report.mean[key]:.4f}"
            if report.degradation_pct is not None:
                value = report.degradation_pct.get(key)
                if value is not None:
                    cell += f" ({-value:.2f}%)"
            cells.append(cell)
        lines.append(f"| {setting} | " + " | ".join(cells) + " |")
        stds = [f"(±{report.std[key]:.4f})" for key in columns]
        lines.append("| | " + " | ".join(stds) + " |")
    return "\n".join(lines)
