import hashlib
import re

import numpy as np
import pytest

from causalcdr import causal, cli, data, diffcore as dc, evaluation, model, training


@pytest.fixture(scope="module")
def small_setup():
    cfg = data.SynthConfig(n_users=100, n_source_items=160, n_target_items=140,
                           k=4, target_density=0.03, source_density=0.05,
                           attribute_shift=1.0, seed=3)
    dataset, truth = data.synth_generate(cfg)
    split = data.generate_split(dataset, data.SplitSpec(seed=3))
    return dataset, split, truth


def quick_config(**kwargs):
    defaults = dict(k=4, epochs=4, batch_size=64, seed=0, patience=10)
    defaults.update(kwargs)
    return training.TrainConfig(**defaults)


class TestOptimizers:
    def test_sgd_step(self):
        x = np.array([1.0, 2.0])
        training.Sgd(0.1).step(x, np.array([1.0, -1.0]))
        assert np.allclose(x, [0.9, 2.1])

    def test_adam_first_step_is_lr_sized(self):
        x = np.array([1.0])
        training.Adam(0.01).step(x, np.array([3.0]))
        # bias-corrected first step is learning_rate * sign(g) (up to eps)
        assert x[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_adam_zero_gradient_keeps_value(self):
        x = np.zeros(4)
        opt = training.Adam(0.05)
        for _ in range(3):
            opt.step(x, np.zeros(4))
        assert np.all(x == 0.0)

    def test_quadratic_convergence(self):
        target = np.array([2.0, -1.0])
        x = np.zeros(2)
        opt = training.Adam(0.1)
        for _ in range(300):
            opt.step(x, 2 * (x - target))
        assert np.allclose(x, target, atol=1e-3)

    @staticmethod
    def textbook_step(name, matrices, grads, moments, t, lr):
        """Step t of every matrix as the textbook writes it, in place."""
        for key, x in matrices.items():
            g = grads[key]
            if name == "sgd":
                x -= lr * g
                continue
            m, v = moments.setdefault(key, [np.zeros_like(x), np.zeros_like(x)])
            m[...] = 0.9 * m + (1 - 0.9) * g
            v[...] = 0.999 * v + (1 - 0.999) * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            x -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)

    @pytest.mark.parametrize("chunk", [None, 7], ids=["real_chunk", "chunk_7"])
    @pytest.mark.parametrize("name", ["adam", "sgd"])
    def test_flat_update_matches_the_textbook_per_matrix(self, monkeypatch, name, chunk):
        # 30000 + 10000 entries: the first chunk boundary falls inside "small"
        assert 30000 < training.OPTIMIZER_CHUNK < 40000
        if chunk is not None:
            monkeypatch.setattr(training, "OPTIMIZER_CHUNK", chunk)
        rng = np.random.default_rng(12)
        reference = {"big": rng.normal(size=(3, 10000)), "small": rng.normal(size=(5, 2000))}
        flat, views = dc.pack(reference)
        optimizer = training.OPTIMIZERS[name](0.01)
        moments = {}
        for t in range(1, 4):
            grads = {key: rng.normal(size=x.shape) * 10.0 ** -t
                     for key, x in reference.items()}
            optimizer.step(flat, dc.pack(grads)[0])
            self.textbook_step(name, reference, grads, moments, t, 0.01)
            for key, x in reference.items():
                assert np.array_equal(views[key], x), (key, t)
        if name == "adam":   # one moment pair for the whole vector
            assert optimizer.m.shape == optimizer.v.shape == flat.shape

    def test_update_rejects_a_gradient_of_another_size(self):
        with pytest.raises(ValueError, match=r"gradient of shape \(3,\) for a "
                                             r"vector of shape \(2,\)"):
            training.Adam(0.01).step(np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError, match=r"vector of shape \(2, 2\)"):
            training.Sgd(0.01).step(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_train_config_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError, match="adamw"):
            training.TrainConfig(optimizer="adamw")

    def test_fit_config_rejects_unknown_optimizer(self):
        with pytest.raises(ValueError, match="adamw"):
            training.AdjacencyFitConfig(optimizer="adamw")

    def test_fit_adjacency_uses_the_optimizer_table(self, monkeypatch):
        stepped = []

        class Recording(training.Sgd):
            def step(self, x, g):
                stepped.append(self.learning_rate)
                super().step(x, g)

        monkeypatch.setitem(training.OPTIMIZERS, "recording", Recording)
        config = training.AdjacencyFitConfig(steps=3, optimizer="recording",
                                             learning_rate=0.05)
        training.fit_adjacency(np.random.default_rng(0).normal(size=(4, 20)), 2, config)
        assert stepped == [0.05] * 3


class TestTrain:
    def test_history_one_record_per_epoch(self, small_setup):
        dataset, split, _ = small_setup
        result = training.train(dataset, split, quick_config())
        assert [r.epoch for r in result.history] == [1, 2, 3, 4]

    def test_deterministic_given_seed(self, small_setup):
        dataset, split, _ = small_setup
        a = training.train(dataset, split, quick_config(seed=5))
        b = training.train(dataset, split, quick_config(seed=5))
        for ra, rb in zip(a.history, b.history):
            assert ra == rb
        for name in a.params.matrices:
            assert np.array_equal(a.params.matrices[name], b.params.matrices[name])

    def test_different_seed_differs(self, small_setup):
        dataset, split, _ = small_setup
        a = training.train(dataset, split, quick_config(seed=5))
        b = training.train(dataset, split, quick_config(seed=6))
        assert any(not np.array_equal(a.params.matrices[n], b.params.matrices[n])
                   for n in a.params.matrices)

    def test_loss_mostly_non_increasing(self, small_setup):
        dataset, split, _ = small_setup
        result = training.train(dataset, split, quick_config(epochs=10, seed=1))
        totals = [r.loss_target + r.loss_source + r.loss_domain + r.loss_causal
                  for r in result.history]
        drops = sum(1 for a, b in zip(totals, totals[1:]) if b <= a + 1e-9)
        assert drops >= 0.9 * (len(totals) - 1)

    def test_no_causal_keeps_adjacency_zero(self, small_setup):
        dataset, split, _ = small_setup
        result = training.train(dataset, split, quick_config(ablation="no_causal"))
        assert result.adjacency is None
        assert np.all(result.params.matrices["adjacency"] == 0.0)
        assert all(r.loss_causal == 0.0 and r.acyclicity == 0.0
                   for r in result.history)

    def test_no_source_drops_source_terms(self, small_setup):
        dataset, split, _ = small_setup
        result = training.train(dataset, split, quick_config(ablation="no_source"))
        assert all(r.loss_source == 0.0 and r.loss_domain == 0.0
                   for r in result.history)

    def test_both_ablations_reduce_to_target_factorization(self, small_setup):
        # no_source + no_causal leaves only L_t and the regularizer: source
        # and discriminator blocks must keep their initial values up to the
        # tiny reg shrinkage
        dataset, split, _ = small_setup
        config = quick_config(ablation="no_source", lambda_causal=0.0,
                              lambda_reg=0.0, epochs=2)
        result = training.train(dataset, split, config)
        dims = model.ModelDims(k=4, n_users=dataset.n_users,
                               n_source_items=dataset.n_source_items,
                               n_target_items=dataset.n_target_items)
        virgin = model.ModelParams.init(dims, seed=config.seed,
                                        init_scale=config.init_scale)
        for name in ("item_emb_s", "user_att_s", "user_map_s", "disc_h1",
                     "disc_h2", "disc_out", "fusion_s", "predictor_s"):
            assert np.array_equal(result.params.matrices[name],
                                  virgin.matrices[name]), name

    def test_empty_target_train_rejected(self, small_setup):
        dataset, _, _ = small_setup
        empty = data.generate_split(dataset, data.SplitSpec(ratios=(1.0, 0.0, 0.0), seed=0))
        empty.train[data.TARGET] = set()
        with pytest.raises(training.TrainingError):
            training.train(dataset, empty, quick_config())

    def test_non_finite_loss_names_epoch_and_step(self, small_setup, monkeypatch):
        dataset, split, _ = small_setup
        calls = []
        total_loss = model.total_loss

        def diverging(*args):
            calls.append(args)
            if len(calls) == 3:
                raise dc.NonFiniteError("bce_sum produced a non-finite value")
            return total_loss(*args)

        monkeypatch.setattr(model, "total_loss", diverging)
        with pytest.raises(training.TrainingError) as raised:
            training.train(dataset, split, quick_config())
        assert str(raised.value) == ("non-finite loss at epoch 1 step 2: "
                                     "bce_sum produced a non-finite value")
        assert isinstance(raised.value.__cause__, dc.NonFiniteError)

    def test_without_validation_lists_the_last_epoch_is_best(self, small_setup):
        dataset, _, _ = small_setup
        split = data.generate_split(dataset, data.SplitSpec(ratios=(0.9, 0.0, 0.1), seed=3))
        assert not split.val_candidates and split.eval_candidates
        result = training.train(dataset, split, quick_config(epochs=3, patience=1))
        assert result.best_epoch == 3
        assert [r.epoch for r in result.history] == [1, 2, 3]
        assert all(np.isnan(r.val_hr10) and np.isnan(r.val_ndcg10)
                   for r in result.history)

    def test_early_stopping_respects_patience(self, small_setup):
        dataset, split, _ = small_setup
        result = training.train(dataset, split,
                                quick_config(epochs=40, patience=3, seed=2))
        # either ran out of epochs or stopped within patience of the best
        last = result.history[-1].epoch
        assert last == 40 or last <= result.best_epoch + 3

    def test_history_csv_round_layout(self, small_setup, tmp_path):
        dataset, split, _ = small_setup
        result = training.train(dataset, split, quick_config())
        path = tmp_path / "history.csv"
        training.history_to_csv(result.history, path, header_meta="seed=0")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == training.HISTORY_HEADER
        assert len(lines) == 2 + len(result.history)


class TestSkippedSaturatedUsers:
    @staticmethod
    def saturated_setup():
        # user 0 knows every target item, user 1 every source item
        target = {(0, i) for i in range(6)} | {(1, 0), (2, 1), (3, 2)}
        source = {(u, u) for u in range(4)} | {(1, i) for i in range(5)}
        ds = data.CrossDomainDataset(n_users=4, n_source_items=5, n_target_items=6,
                                     source_positives=source, target_positives=target)
        split = data.SplitResult(
            train={data.SOURCE: set(source), data.TARGET: set(target)},
            validation={data.SOURCE: set(), data.TARGET: set()},
            test={data.SOURCE: set(), data.TARGET: set()},
            eval_candidates=[], val_candidates=[], seed=0, tiebreak_seed=0)
        return ds, split

    @pytest.mark.parametrize("ablation, expected", [
        ("full", {data.TARGET: 6, data.SOURCE: 5}),
        ("no_source", {data.TARGET: 6}),
    ])
    def test_kept_per_epoch_on_the_result(self, ablation, expected):
        ds, split = self.saturated_setup()
        result = training.train(ds, split, quick_config(k=2, epochs=3, batch_size=4,
                                                        ablation=ablation))
        assert len(result.history) == 3
        assert result.skipped_saturated_users == [expected] * 3

    def test_history_csv_does_not_carry_them(self, tmp_path):
        ds, split = self.saturated_setup()
        result = training.train(ds, split, quick_config(k=2, epochs=2, batch_size=4))
        training.history_to_csv(result.history, tmp_path / "history.csv")
        assert (tmp_path / "history.csv").read_text().splitlines()[0] == \
            training.HISTORY_HEADER


class TestGrlBlocks:
    def test_min_max_gradient_blocks(self):
        # the single backward pass must give the discriminator block the
        # gradient of +lambda_domain*L_c and the encoder block the gradient
        # of -lambda_domain*grl_scale*L_c (checked by finite differences
        # with the causal path disabled so no other term touches them)
        dims = model.ModelDims(k=4, n_users=5, n_source_items=6, n_target_items=6)
        params = model.ModelParams.init(dims, seed=8, init_scale=0.5)
        rng = np.random.default_rng(9)
        n = 6
        target = model.Batch(users=rng.integers(0, 5, n),
                             items=rng.integers(0, 6, n),
                             labels=rng.integers(0, 2, n).astype(float))
        source = model.Batch(users=rng.integers(0, 5, n),
                             items=rng.integers(0, 6, n),
                             labels=rng.integers(0, 2, n).astype(float))
        grl_scale = 0.7
        lambda_domain = 0.5
        config = model.LossConfig(lambda_causal=0.0, lambda_reg=0.0,
                                  lambda_domain=lambda_domain,
                                  grl_scale=grl_scale)

        def run(p_mats):
            p = params.copy()
            for name, v in p_mats.items():
                p.matrices[name][...] = np.asarray(v).copy()
            tape = dc.Tape()
            total, b = model.total_loss(tape, p, target, source, config)
            tape.backward(total)
            return b.domain, tape.grads()

        grads = run({})[1]

        def disc_target(p_mats):
            return lambda_domain * run(p_mats)[0]

        err = max(dc.finite_diff_details(
            disc_target, {n: params.matrices[n] for n in
                          ("disc_h1", "disc_h2", "disc_out")}, grads, step=1e-5).values())
        assert err < 1e-5

        def encoder_target(p_mats):
            return -lambda_domain * grl_scale * run(p_mats)[0]

        err = max(dc.finite_diff_details(
            encoder_target, {"shared_encoder": params.matrices["shared_encoder"]},
            grads, step=1e-5).values())
        assert err < 1e-5


class TestProbe:
    def test_zero_discriminator_is_half_with_ties(self):
        dims = model.ModelDims(k=4, n_users=10, n_source_items=5, n_target_items=5)
        params = model.ModelParams.init(dims, seed=1)
        for name in ("disc_h1", "disc_h2", "disc_out"):
            params.matrices[name][...] = np.zeros_like(params.matrices[name])
        probe = training.discriminator_probe(params)
        assert probe.accuracy == 0.5
        assert probe.tie_fraction == 1.0

    def test_perfect_separation_reaches_one(self):
        dims = model.ModelDims(k=2, n_users=4, n_source_items=3, n_target_items=3)
        params = model.ModelParams.init(dims, seed=2)
        # source attributes activate unit 0, target attributes unit 1
        params.matrices["user_att_s"][...] = np.vstack([np.ones(4), np.zeros(4)])
        params.matrices["user_att_t"][...] = np.vstack([np.zeros(4), np.ones(4)])
        params.matrices["shared_encoder"][...] = np.eye(2)
        params.matrices["disc_h1"][...] = np.eye(2)
        params.matrices["disc_h2"][...] = np.eye(2)
        params.matrices["disc_out"][...] = np.array([[5.0, -5.0], [-5.0, 5.0]])
        probe = training.discriminator_probe(params)
        assert probe.accuracy == 1.0


class TestFitAdjacency:
    def test_loss_monotone_under_plain_descent(self):
        # strong-signal instance: column masses clear the log term's
        # high-curvature zone within one step, keeping plain SGD monotone
        rng = np.random.default_rng(4)
        k = 4
        b = np.zeros((k, k))
        b[0, 1] = 1.5
        b[2, 3] = -1.5
        b[1, 0] = 1.35
        b[3, 2] = 1.2
        a = rng.normal(size=(200, k))
        h = np.vstack([a.T, (a @ b).T])
        config = training.AdjacencyFitConfig(
            learning_rate=1e-2, steps=50, optimizer="sgd",
            penalty=model.LossConfig().penalty)
        _, history = training.fit_adjacency(h, k, config)
        losses = [step[0] for step in history]
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(losses, losses[1:]))

    def test_direction_penalty_empties_reverse_block(self):
        rng = np.random.default_rng(5)
        k = 3
        b = np.eye(k)
        a = rng.normal(size=(300, k))
        h = np.vstack([a.T, (a @ b + 0.05 * rng.normal(size=(300, k))).T])
        config = training.AdjacencyFitConfig(
            steps=800, penalty=model.LossConfig(gamma_direction=50.0).penalty)
        adjacency, _ = training.fit_adjacency(h, k, config)
        reverse_mass = np.abs(adjacency[k:, :k]).sum()
        total_mass = np.abs(adjacency).sum()
        assert reverse_mass < 0.01 * total_mass

    def test_recovers_sparse_linear_map(self):
        rng = np.random.default_rng(6)
        k = 3
        b = data._random_weight_matrix(k, 6, rng)
        a = rng.normal(size=(400, k))
        h = np.vstack([a.T, (a @ b + 0.1 * rng.normal(size=(400, k))).T])
        adjacency, _ = training.fit_adjacency(h, k)
        truth = {(int(i), int(k + j)) for i, j in zip(*np.nonzero(b))}
        ext = causal.extract_graph(adjacency, 0.3, reference_edges=truth)
        assert ext.f1 >= 0.9

    def test_diverging_fit_names_its_step(self):
        # plain Sgd at the default rate overflows under the dag weight of 500
        rng = np.random.default_rng(6)
        k = 4
        b = data._random_weight_matrix(k, 6, rng)
        a = rng.normal(size=(300, k))
        h = np.vstack([a.T, (a @ b + 0.1 * rng.normal(size=(300, k))).T])
        config = training.AdjacencyFitConfig(optimizer="sgd")
        with np.errstate(all="ignore"):
            with pytest.raises(training.TrainingError,
                               match=r"^non-finite loss at step \d+: ") as raised:
                training.fit_adjacency(h, k, config)
            step = int(re.search(r"step (\d+)", str(raised.value)).group(1))
            # the steps before it all have finite losses
            config.steps = step
            _, history = training.fit_adjacency(h, k, config)
        assert len(history) == step > 0
        assert all(np.isfinite(loss) for loss, _ in history)

    def test_strict_mask_confines_support(self):
        rng = np.random.default_rng(7)
        k = 3
        h = rng.normal(size=(2 * k, 100))
        config = training.AdjacencyFitConfig(steps=50, strict_mask=True)
        adjacency, _ = training.fit_adjacency(h, k, config)
        adjacency[np.abs(adjacency) < 1e-12] = 0.0
        assert np.all(adjacency[:, :k] == 0.0)
        assert np.all(adjacency[k:, :] == 0.0)


# The bytes fit_adjacency returns for a fixed seeded sample, one run per
# optimizer: a change to how the adjacency is registered, differentiated
# or stepped that moves a single float changes a digest.
GOLDEN_FIT = {
    "adam": ({}, "a93c36141cdf97449397cdd63cfe860b9bb8f7f698791a8a5defe45b072bd3ac"),
    "sgd": ({"optimizer": "sgd", "learning_rate": 1e-3, "steps": 300},
            "8e43d65f6142773399927513ade5eece39af495ca13c60ce20600754093b4e46"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIT))
def test_fit_adjacency_bytes_are_pinned(name):
    overrides, digest = GOLDEN_FIT[name]
    rng = np.random.default_rng(11)
    k = 4
    b = data._random_weight_matrix(k, 6, rng)
    a = rng.normal(size=(300, k))
    h = np.vstack([a.T, (a @ b + 0.1 * rng.normal(size=(300, k))).T])
    adjacency, _ = training.fit_adjacency(h, k, training.AdjacencyFitConfig(**overrides))
    assert hashlib.sha256(adjacency.tobytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# The bytes train_seed writes for a tiny two-epoch run. A change to the
# training step that moves a single float of the trajectory (summation
# order, an RNG stream, the optimizer's arithmetic) changes a digest.

GOLDEN_TRAIN_CONFIG = cli.ExperimentConfig(
    synth=data.SynthConfig(n_users=100, n_source_items=160, n_target_items=140,
                           k=4, target_density=0.03, source_density=0.05,
                           attribute_shift=1.0, seed=3),
    split=data.SplitSpec(seed=3),
    train=training.TrainConfig(k=4, epochs=2, batch_size=64),
    seeds=(1,))
GOLDEN_TRAIN = {
    "checkpoint.nmc": "e24b17b673007172243bb83abf23a7a7410055717990b6f4c6da253977587378",
    "history.csv": "a613ee7c6042fc6523b2cac7ef48f88f80f0f2e9fc9f7307d5ee41836597299f",
    "metrics_seed.csv": "118bcbad44449e49f1128cb0bcfc0b1d0ba1cd8f6e057e53a38a537ab51af5db",
}


def test_train_seed_bytes_are_pinned(tmp_path):
    config = GOLDEN_TRAIN_CONFIG
    dataset, _, split = cli.prepare(config, tmp_path)
    cli.train_seed(config, dataset, split, 1, tmp_path)
    written = {name: hashlib.sha256((tmp_path / "seed_1" / name).read_bytes()).hexdigest()
               for name in GOLDEN_TRAIN}
    assert written == GOLDEN_TRAIN
