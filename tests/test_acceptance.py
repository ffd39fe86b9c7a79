"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -s` to see them live).

Training-based criteria use synthetic configurations frozen after
calibration; every tolerance is pinned here, none deferred.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from causalcdr import (causal, cli, data, diffcore as dc, evaluation,
                       gradcheck, model, training)
from causalcdr.data import SOURCE, TARGET


def report_line(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[criterion {number}] {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name} failed: {detail}"


def test_criterion_1_gradient_correctness():
    started = time.time()
    report = gradcheck.run_gradient_check(seed=0, grl_scale=1.0, step=1e-4,
                                          threshold=1e-4)
    elapsed = time.time() - started
    detail = (f"max rel err {report.max_relative_error:.2e} over "
              f"{len(report.per_block)} blocks, {elapsed:.1f}s")
    report_line(1, "gradient correctness", report.passed and elapsed < 10.0,
                detail)


def test_criterion_2_acyclicity_oracle():
    two_cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    value_ok = abs(dc.acyclicity(two_cycle) - (2 * math.cosh(1.0) - 2)) < 1e-9

    rng = np.random.default_rng(0)
    triangular_ok = True
    for _ in range(10):
        upper = np.triu(rng.normal(size=(8, 8)) * 2, k=1)
        lower = np.tril(rng.normal(size=(8, 8)) * 2, k=-1)
        triangular_ok &= abs(dc.acyclicity(upper)) < 1e-10
        triangular_ok &= abs(dc.acyclicity(lower)) < 1e-10

    gradient_ok = True
    worst = 0.0
    step = 1e-5
    for seed in range(20):
        a = np.random.default_rng(100 + seed).normal(size=(4, 4)) * 0.6
        tape = dc.Tape()
        tape.backward(dc.acyclicity_term(tape.param("a", a)))
        grad = tape.grad("a")
        for i in range(4):
            for j in range(4):
                plus = a.copy()
                plus[i, j] += step
                minus = a.copy()
                minus[i, j] -= step
                fd = (dc.acyclicity(plus) - dc.acyclicity(minus)) / (2 * step)
                denom = max(abs(grad[i, j]), abs(fd))
                err = abs(grad[i, j] - fd) if denom < 1e-8 else abs(grad[i, j] - fd) / denom
                worst = max(worst, err)
        gradient_ok &= worst < 1e-5
    report_line(2, "acyclicity oracle",
                value_ok and triangular_ok and gradient_ok,
                f"gradient max rel err {worst:.2e}")


def brute_force_rank_metrics(scores, positive_position, k):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    rank = order.index(positive_position) + 1
    if rank > k:
        return 0, 0.0
    return 1, 1.0 / math.log2(rank + 1)


def test_criterion_3_ranking_metric_oracle():
    rng = np.random.default_rng(3)
    exact = True
    for _ in range(200):
        # integer scores force heavy ties; floats cover the generic case
        if rng.random() < 0.5:
            scores = rng.integers(0, 10, size=100).astype(float)
        else:
            scores = rng.normal(size=100)
        pos = int(rng.integers(100))
        for k in (5, 10):
            got = evaluation.rank_metrics(scores, pos, k)
            expected = brute_force_rank_metrics(scores, pos, k)
            exact &= got[0] == expected[0] and got[1] == expected[1]

    scores = np.zeros(100)
    scores[7] = 2.0   # one candidate strictly above the positive
    scores[40] = 1.0
    _, ndcg = evaluation.rank_metrics(scores, 40, 5)
    rank2_ok = abs(ndcg - 1.0 / math.log2(3)) < 1e-9 and abs(ndcg - 0.63093) < 1e-5
    report_line(3, "ranking-metric oracle", exact and rank2_ok,
                "200 instances exact, rank-2 NDCG matches")


@pytest.fixture(scope="module")
def protocol_dataset():
    cfg = data.SynthConfig(n_users=500, n_source_items=400, n_target_items=300,
                           k=4, target_density=0.02, source_density=0.04,
                           attribute_shift=0.5, seed=42)
    dataset, _ = data.synth_generate(cfg)
    return dataset


def test_criterion_4_protocol_fidelity(protocol_dataset):
    dataset = protocol_dataset
    split = data.generate_split(dataset, data.SplitSpec(seed=0))
    ratio_ok = True
    for domain in (SOURCE, TARGET):
        total = len(dataset.positives(domain))
        expected = data._apportion(total, (0.8, 0.1, 0.1))
        got = (len(split.train[domain]), len(split.validation[domain]),
               len(split.test[domain]))
        ratio_ok &= all(abs(g - e) <= 1 for g, e in zip(got, expected))

    # every list holds 100 distinct items, and the lists' (user, positive)
    # pairs are exactly the held-out target positives
    lists = split.eval_candidates
    held = list(zip(lists.users.tolist(), lists.items[:, 0].tolist()))
    candidates_ok = (lists.items.shape == (len(lists), 100)
                     and all(len(set(row)) == 100 for row in lists.items.tolist())
                     and sorted(held) == sorted(split.test[TARGET]))

    degree_split = data.generate_split(dataset, data.SplitSpec(
        "ood_degree", train_mix=(0.4, 0.6), test_mix=(0.7, 0.3), seed=1))
    types = data._user_types_by_degree(dataset)
    deg_train = data.realized_mixture(degree_split.train[TARGET], types)
    deg_test = data.realized_mixture(degree_split.test[TARGET], types)
    degree_ok = abs(deg_train - 0.4) < 0.02 and abs(deg_test - 0.7) < 0.02

    attr_split = data.generate_split(dataset, data.SplitSpec(
        "ood_attribute", train_mix=(0.8, 0.2), test_mix=(0.2, 0.8), seed=1))
    attr_types = (dataset.user_attribute == 0).astype(int)
    attr_train = data.realized_mixture(attr_split.train[TARGET], attr_types)
    attr_test = data.realized_mixture(attr_split.test[TARGET], attr_types)
    attr_ok = abs(attr_train - 0.8) < 0.02 and abs(attr_test - 0.2) < 0.02

    detail = (f"iid ±1 ok; degree mix {deg_train:.3f}/{deg_test:.3f}; "
              f"attribute mix {attr_train:.3f}/{attr_test:.3f}")
    report_line(4, "protocol fidelity",
                ratio_ok and candidates_ok and degree_ok and attr_ok, detail)


def test_criterion_5_dag_recovery():
    started = time.time()
    f1_scores = []
    h_values = []
    for seed in range(5):
        cfg = data.SynthConfig(n_users=500, n_source_items=400,
                               n_target_items=300, k=4, noise_scale=0.1,
                               n_edges=8, seed=seed)
        _, truth = data.synth_generate(cfg)
        adjacency, _ = training.fit_adjacency(truth.samples(TARGET), k=4)
        extraction = causal.extract_graph(adjacency, 0.3,
                                          reference_edges=truth.edges)
        f1_scores.append(extraction.f1)
        h_values.append(dc.acyclicity(adjacency))
    elapsed = time.time() - started
    mean_f1 = float(np.mean(f1_scores))
    passed = mean_f1 >= 0.8 and max(h_values) < 1e-3 and elapsed < 120.0
    report_line(5, "DAG recovery", passed,
                f"mean F1 {mean_f1:.3f}, max acyclicity {max(h_values):.2e}, "
                f"{elapsed:.0f}s")


@pytest.fixture(scope="module")
def adversarial_setup():
    cfg = data.SynthConfig(n_users=150, n_source_items=200, n_target_items=150,
                           k=4, target_density=0.04, source_density=0.07,
                           degree_spread=0.25, attribute_shift=1.0,
                           source_map_correlation=0.3, seed=1)
    dataset, _ = data.synth_generate(cfg)
    # no validation part: the probe wants the final training state, not a
    # best-validation snapshot
    split = data.generate_split(dataset, data.SplitSpec(ratios=(0.9, 0.0, 0.1), seed=1))
    return dataset, split


def test_criterion_6_adversarial_alignment(adversarial_setup):
    dataset, split = adversarial_setup
    in_band = 0
    control_high = 0
    pairs = []
    for seed in range(5):
        adversarial = training.train(dataset, split, training.TrainConfig(
            k=16, epochs=30, batch_size=64, seed=seed, grl_scale=1.0))
        control = training.train(dataset, split, training.TrainConfig(
            k=16, epochs=30, batch_size=64, seed=seed, grl_scale=0.0))
        acc_adv = training.discriminator_probe(adversarial.params).accuracy
        acc_ctl = training.discriminator_probe(control.params).accuracy
        pairs.append((acc_adv, acc_ctl))
        in_band += 0.45 <= acc_adv <= 0.60
        control_high += acc_ctl > 0.9
    detail = ("grl-on/off accuracies " +
              " ".join(f"{a:.2f}/{c:.2f}" for a, c in pairs) +
              f"; in-band {in_band}/5, control {control_high}/5")
    report_line(6, "adversarial alignment",
                in_band >= 4 and control_high >= 4, detail)


@pytest.fixture(scope="module")
def shift_setup():
    cfg = data.SynthConfig(n_users=400, n_source_items=400, n_target_items=300,
                           k=4, target_density=0.03, source_density=0.05,
                           attribute_shift=2.0, noise_scale=0.15,
                           source_map_correlation=0.8, seed=7)
    dataset, _ = data.synth_generate(cfg)
    iid = data.generate_split(dataset, data.SplitSpec(seed=7))
    ood = data.generate_split(dataset, data.SplitSpec(
        "ood_attribute", train_mix=(0.8, 0.2), test_mix=(0.2, 0.8), seed=7))
    return dataset, iid, ood


def test_criterion_7_ablation_ordering(shift_setup):
    dataset, iid, ood = shift_setup
    ood_wins = 0
    degradation_wins = 0
    rows = []
    for seed in range(5):
        hr = {}
        for ablation in ("full", "no_causal"):
            for name, split in (("iid", iid), ("ood", ood)):
                config = training.TrainConfig(k=8, epochs=20, batch_size=64,
                                              seed=seed, ablation=ablation,
                                              patience=8)
                result = training.train(dataset, split, config)
                metrics = evaluation.evaluate(result.params, result.adjacency,
                                              split, ks=(10,))
                hr[(ablation, name)] = metrics["HR@10"]
        deg_full = (hr[("full", "iid")] - hr[("full", "ood")]) / hr[("full", "iid")]
        deg_ablat = (hr[("no_causal", "iid")] - hr[("no_causal", "ood")]) \
            / hr[("no_causal", "iid")]
        ood_wins += hr[("full", "ood")] >= hr[("no_causal", "ood")]
        degradation_wins += deg_full <= deg_ablat
        rows.append(f"{hr[('full','ood')]:.2f}vs{hr[('no_causal','ood')]:.2f}")
    detail = (f"ood wins {ood_wins}/5 ({' '.join(rows)}), "
              f"degradation wins {degradation_wins}/5")
    report_line(7, "ablation ordering",
                ood_wins >= 4 and degradation_wins >= 3, detail)


def test_criterion_8_determinism(tmp_path):
    config = cli.parse_config_text("""
dataset.kind=synthetic
synth.n_users=80
synth.n_source_items=120
synth.n_target_items=150
synth.k=4
synth.target_density=0.03
synth.source_density=0.05
synth.seed=13
split.kind=iid
split.seed=13
train.k=4
train.epochs=3
train.batch_size=64
seeds=1,2
""")
    digests = []
    for run in ("a", "b"):
        config.out_dir = str(tmp_path / f"run_{run}")
        cli.run_experiment(config)
        blob = b""
        for rel in ("metrics.csv", "seed_1/checkpoint.nmc",
                    "seed_2/checkpoint.nmc", "seed_1/metrics_seed.csv",
                    "seed_1/history.csv"):
            blob += (tmp_path / f"run_{run}" / rel).read_bytes()
        digests.append(blob)
    report_line(8, "determinism", digests[0] == digests[1],
                "metrics CSVs and checkpoints byte-identical")


def test_criterion_9_uniform_scorer_sanity():
    cfg = data.SynthConfig(n_users=700, n_source_items=300, n_target_items=300,
                           k=4, target_density=0.05, source_density=0.03,
                           seed=21)
    dataset, _ = data.synth_generate(cfg)
    split = data.generate_split(dataset, data.SplitSpec(seed=21))
    n_positives = len(split.eval_candidates)
    metrics = evaluation.evaluate_candidates(
        split.eval_candidates, lambda users, items: np.zeros(items.shape))
    hr10 = metrics["HR@10"]
    passed = n_positives >= 1000 and abs(hr10 - 0.1) <= 0.03
    report_line(9, "uniform-scorer sanity", passed,
                f"HR@10 {hr10:.4f} over {n_positives} test positives")
