import collections
import gc
import hashlib

import numpy as np
import pytest

from causalcdr import causal, diffcore as dc, matrixio, model, training

import reference_ops as ref


DIMS = model.ModelDims(k=4, n_users=6, n_source_items=8, n_target_items=8)


def make_params(seed=0, **kwargs):
    return model.ModelParams.init(DIMS, seed=seed, **kwargs)


def make_batches(seed=0, n=8):
    rng = np.random.default_rng(seed)
    target = model.Batch(users=rng.integers(0, DIMS.n_users, n),
                         items=rng.integers(0, DIMS.n_target_items, n),
                         labels=rng.integers(0, 2, n).astype(float))
    source = model.Batch(users=rng.integers(0, DIMS.n_users, n),
                         items=rng.integers(0, DIMS.n_source_items, n),
                         labels=rng.integers(0, 2, n).astype(float))
    return target, source


def score_block(params, adjacency, users, items):
    tape = dc.Tape(grad=False)
    a_pref = (causal.preference_block(tape.constant(adjacency), params.dims.k)
              if adjacency is not None else None)
    return model.score_candidates(params.register(tape), users, items, a_pref)


def encode_target(params, users, tape=None):
    """dc.encode's node and u for the target domain's users."""
    nodes = params.register(dc.Tape() if tape is None else tape)
    return dc.encode(nodes["user_att_t"], users, nodes["shared_encoder"],
                     nodes["user_map_t"])


def probe_outputs(monkeypatch, params):
    """The discriminator outputs that training.discriminator_probe reads."""
    seen = []
    layers = dc._layers

    def spy(*args):
        out = layers(*args)
        seen.append(out[0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(dc, "_layers", spy)
        training.discriminator_probe(params)
    (outputs,) = seen
    return outputs


class TestEncoders:
    # E = [u; relu(shared_encoder @ u); user_map @ u] for u = user_att[:, users]
    K = DIMS.k

    def test_attribute_rows_are_column_selection(self):
        params = make_params()
        e, att = encode_target(params, [3, 1, 3])
        assert np.array_equal(e.value[:self.K], params.matrices["user_att_t"][:, [3, 1, 3]])
        assert np.array_equal(att, e.value[:self.K])

    def test_embed_gradients_stay_in_their_columns(self):
        params = make_params()
        tape = dc.Tape()
        e, _ = encode_target(params, [2, 2], tape)
        tape.backward(ref.sq_l2(e))
        grad = tape.grad("user_att_t")
        assert np.any(grad[:, 2] != 0)
        others = np.delete(grad, 2, axis=1)
        assert np.all(others == 0)

    @pytest.mark.parametrize("users, items", [
        ([0], [[DIMS.n_target_items]]), ([DIMS.n_users], [[0]]), ([-1], [[0]])],
        ids=["item", "user", "negative_user"])
    def test_embed_index_out_of_range(self, users, items):
        with pytest.raises(dc.ShapeError, match="index out of range"):
            score_block(make_params(), None, users, items)

    @pytest.mark.parametrize("users", [[0], [0, 1, 2]], ids=["fewer", "more"])
    def test_scoring_needs_one_user_per_list(self, users):
        with pytest.raises(dc.ShapeError, match="score_candidates: .* users for 2 lists"):
            score_block(make_params(), None, users, [[0, 1], [2, 3]])

    def test_domain_specific_is_linear_map(self):
        params = make_params()
        params.matrices["user_map_t"][...] = np.eye(self.K)
        e, att = encode_target(params, [0, 4])
        assert np.allclose(e.value[2 * self.K:], att)

    def test_domain_specific_matches_matvec_oracle(self):
        params = make_params(seed=1)
        e, _ = encode_target(params, [5, 0])
        m = params.matrices
        assert np.allclose(e.value[2 * self.K:], m["user_map_t"] @ m["user_att_t"][:, [5, 0]])

    def test_shared_encoder_relu(self):
        params = make_params()
        params.matrices["shared_encoder"][...] = -np.eye(self.K)
        params.matrices["user_att_t"][...] = np.abs(params.matrices["user_att_t"])
        e, _ = encode_target(params, [1, 2, 3])
        assert np.all(e.value[self.K:2 * self.K] == 0.0)

    def test_shared_encoder_oracle(self):
        params = make_params(seed=3)
        e, _ = encode_target(params, [4, 1])
        m = params.matrices
        assert np.allclose(e.value[self.K:2 * self.K],
                           np.maximum(m["shared_encoder"] @ m["user_att_t"][:, [4, 1]], 0))


class TestDiscriminator:
    def test_zero_weights_give_half(self, monkeypatch):
        params = make_params()
        for name in ("disc_h1", "disc_h2", "disc_out"):
            params.matrices[name][...] = np.zeros_like(params.matrices[name])
        outputs = probe_outputs(monkeypatch, params)
        assert outputs.shape == (2, 2 * DIMS.n_users)
        assert np.all(outputs == 0.5)

    def test_outputs_in_open_interval(self, monkeypatch):
        outputs = probe_outputs(monkeypatch, make_params(seed=4, init_scale=2.0))
        assert np.all(outputs > 0) and np.all(outputs < 1)

    def test_grl_flips_encoder_gradient_sign(self):
        params = make_params(seed=6)
        source_users, target_users = [0, 3, 5], [1, 3]
        domains = ["source"] * 3 + ["target"] * 2

        tape = dc.Tape()
        nodes = params.register(tape)
        e_source, _ = dc.encode(nodes["user_att_s"], source_users, nodes["shared_encoder"],
                                nodes["user_map_s"])
        e_target, _ = dc.encode(nodes["user_att_t"], target_users, nodes["shared_encoder"],
                                nodes["user_map_t"])
        tape.backward(dc.domain_bce(e_source, e_target, nodes["disc_h1"], nodes["disc_h2"],
                                    nodes["disc_out"], 1.0))
        with_grl = tape.grad("shared_encoder")

        tape = dc.Tape()
        nodes = params.register(tape)
        shared = dc.hconcat(*(ref.relu(ref.matmul(nodes["shared_encoder"],
                                                  ref.gather_cols(nodes[name], users)))
                              for name, users in (("user_att_s", source_users),
                                                  ("user_att_t", target_users))))
        hidden1 = ref.relu(ref.matmul(nodes["disc_h1"], shared))
        hidden2 = ref.relu(ref.matmul(nodes["disc_h2"], hidden1))
        lhat = ref.sigmoid(ref.matmul(nodes["disc_out"], hidden2))
        tape.backward(ref.domain_loss(lhat, domains))
        without_grl = tape.grad("shared_encoder")
        assert np.any(with_grl != 0)
        assert np.allclose(with_grl, -without_grl)


class TestLosses:
    def test_domain_loss_at_half(self):
        tape = dc.Tape()
        lhat = tape.constant(np.full((2, 1), 0.5))
        loss = ref.domain_loss(lhat, ["source"])
        assert float(loss.value) == pytest.approx(-2 * np.log(0.5))

    def test_domain_loss_perfect_prediction(self):
        tape = dc.Tape()
        lhat = tape.constant(np.array([[1 - 1e-7], [1e-7]]))
        loss = ref.domain_loss(lhat, ["source"])
        assert float(loss.value) == pytest.approx(0.0, abs=1e-5)

    def test_domain_loss_matches_scalar_oracle(self):
        rng = np.random.default_rng(8)
        probs = rng.uniform(0.1, 0.9, size=(2, 8))
        domains = ["source" if i % 2 else "target" for i in range(8)]
        tape = dc.Tape()
        loss = ref.domain_loss(tape.constant(probs), domains)
        expected = 0.0
        for col, domain in enumerate(domains):
            label = np.zeros(2)
            label[model.DOMAIN_LABEL_UNIT[domain]] = 1.0
            for unit in range(2):
                p = probs[unit, col]
                expected -= label[unit] * np.log(p) + (1 - label[unit]) * np.log(1 - p)
        assert float(loss.value) == pytest.approx(expected, rel=1e-12)

    def test_domain_loss_names_an_unknown_domain(self):
        tape = dc.Tape()
        lhat = tape.constant(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="unknown domain 'Target'"):
            ref.domain_loss(lhat, ["source", "Target"])

    @pytest.mark.parametrize("n_domains", [0, 2, 4], ids=["empty", "short", "long"])
    def test_domain_loss_needs_one_domain_per_column(self, n_domains):
        tape = dc.Tape()
        lhat = tape.constant(np.full((2, 3), 0.5))
        with pytest.raises(dc.ShapeError, match=f"{n_domains} domains"):
            ref.domain_loss(lhat, ["source"] * n_domains)

    def test_interaction_loss_at_half(self):
        tape = dc.Tape()
        probs = tape.constant(np.full((1, 4), 0.5))
        loss = ref.interaction_loss(probs, np.array([1.0, 0.0, 1.0, 0.0]))
        assert float(loss.value) == pytest.approx(4 * np.log(2))

    def test_interaction_loss_batch_oracle(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0.05, 0.95, size=16)
        y = rng.integers(0, 2, size=16).astype(float)
        tape = dc.Tape()
        loss = ref.interaction_loss(tape.constant(p.reshape(1, 16)), y)
        expected = -np.sum(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert float(loss.value) == pytest.approx(expected, rel=1e-12)


class TestPredict:
    USERS = np.array([0, 2, 5])
    ITEMS = np.array([[1, 4, 7], [0, 0, 3], [6, 2, 5]])

    def test_zero_predictor_gives_half(self):
        params = make_params()
        params.matrices["predictor_t"][...] = np.zeros((2, DIMS.k))
        scores = score_block(params, params.effective_adjacency_matrix(), self.USERS,
                             self.ITEMS)
        assert np.allclose(scores, 0.5)

    def test_zero_item_gives_half(self):
        params = make_params(seed=11)
        params.matrices["item_emb_t"][:, 3] = 0.0
        scores = score_block(params, params.effective_adjacency_matrix(), self.USERS,
                             self.ITEMS)
        assert scores[1, 2] == pytest.approx(0.5)
        assert np.all(scores[self.ITEMS != 3] != 0.5)

    def test_matches_step_by_step_oracle(self):
        params = make_params(seed=13)
        params.matrices["adjacency"][...] = np.random.default_rng(14).normal(size=(8, 8))
        adjacency = params.effective_adjacency_matrix()
        scores = score_block(params, adjacency, self.USERS, self.ITEMS)
        m, k = params.matrices, DIMS.k
        for row, (user, items) in enumerate(zip(self.USERS, self.ITEMS)):
            u = m["user_att_t"][:, [user]]
            u_cau = adjacency[:k, k:].T @ u
            fused = m["fusion_t"] @ np.vstack([m["user_map_t"] @ u, u_cau])
            for col, item in enumerate(items):
                logits = (m["predictor_t"] @ (fused * m["item_emb_t"][:, [item]])).ravel()
                expected = np.exp(logits[1]) / np.exp(logits).sum()
                assert scores[row, col] == pytest.approx(expected, rel=1e-12)

    def test_scorer_matches_tape_predict(self):
        params = make_params(seed=15)
        params.matrices["adjacency"][...] = np.random.default_rng(16).normal(
            size=(8, 8)) * 0.3
        adjacency = params.effective_adjacency_matrix()
        items = np.arange(DIMS.n_target_items)
        block = score_block(params, adjacency, np.arange(DIMS.n_users),
                            np.tile(items, (DIMS.n_users, 1)))
        for user in range(DIMS.n_users):
            fast = block[user]
            tape = dc.Tape()
            nodes = params.register(tape)
            a_eff = causal.effective_adjacency(nodes["adjacency"], DIMS.k)
            batch = model.Batch(users=np.full(len(items), user),
                                items=items,
                                labels=np.zeros(len(items)))
            art = ref.forward_batch(nodes, "target", batch,
                                    causal.preference_block(a_eff, DIMS.k))
            assert np.allclose(fast, art.probs.value.ravel(), atol=1e-12)

    def test_permutation_equivariance_in_k(self):
        params = make_params(seed=17)
        rng = np.random.default_rng(18)
        params.matrices["adjacency"][...] = rng.normal(size=(8, 8)) * 0.2
        adjacency = params.effective_adjacency_matrix()
        perm = rng.permutation(DIMS.k)
        p = np.eye(DIMS.k)[perm]
        block = np.block([[p, np.zeros((4, 4))], [np.zeros((4, 4)), p]])

        permuted = params.copy()
        mats = permuted.matrices
        for name in ("item_emb_t", "item_emb_s", "user_att_t", "user_att_s"):
            mats[name][...] = p @ mats[name]
        for name in ("user_map_t", "user_map_s", "shared_encoder"):
            mats[name][...] = p @ mats[name] @ p.T
        mats["disc_h1"][...] = mats["disc_h1"] @ p.T
        for name in ("fusion_t", "fusion_s"):
            mats[name][...] = p @ mats[name] @ block.T
        for name in ("predictor_t", "predictor_s"):
            mats[name][...] = mats[name] @ p.T
        mats["adjacency"][...] = block @ mats["adjacency"] @ block.T
        adjacency_perm = permuted.effective_adjacency_matrix()

        users = np.arange(DIMS.n_users)
        items = np.tile(np.arange(DIMS.n_target_items), (DIMS.n_users, 1))
        base = score_block(params, adjacency, users, items)
        twisted = score_block(permuted, adjacency_perm, users, items)
        assert np.allclose(base, twisted, atol=1e-10)

    def test_no_causal_scores_ignore_the_adjacency(self):
        params = make_params(seed=37)
        users = np.array([0, 3, 3])
        items = np.random.default_rng(38).integers(0, DIMS.n_target_items, (3, 5))
        base = score_block(params, None, users, items)
        params.matrices["adjacency"][...] = np.ones((8, 8))
        assert np.array_equal(score_block(params, None, users, items), base)
        assert base.shape == (3, 5)


class TestTotalLoss:
    def test_zero_weights_leave_target_loss(self):
        target, source = make_batches()
        params = make_params(seed=19)
        config = model.LossConfig(lambda_source=0, lambda_domain=0,
                                  lambda_causal=0, lambda_reg=0)
        tape = dc.Tape()
        total, breakdown = model.total_loss(tape, params, target, source, config)
        assert float(total.value) == pytest.approx(breakdown.interaction_target)

    def test_breakdown_sums_to_total(self):
        target, source = make_batches(seed=20)
        params = make_params(seed=21)
        params.matrices["adjacency"][...] = np.random.default_rng(22).normal(size=(8, 8)) * 0.1
        config = model.LossConfig()
        tape = dc.Tape()
        total, b = model.total_loss(tape, params, target, source, config)
        expected = (b.interaction_target + config.lambda_source * b.interaction_source
                    + config.lambda_domain * b.domain
                    + config.lambda_causal * b.causal
                    + config.lambda_reg * b.regularizer)
        assert float(total.value) == pytest.approx(expected, rel=1e-12)
        terms, w = b.causal_terms, config.penalty
        causal = (terms.reconstruction + w.dag * terms.dag + w.direction * terms.direction
                  + w.not_root * terms.not_root + w.sparsity * terms.sparsity)
        assert b.causal == pytest.approx(causal, rel=1e-12)

    def test_no_causal_equals_zeroed_causal_path(self):
        target, source = make_batches(seed=23)
        params = make_params(seed=24)
        params.matrices["adjacency"][...] = np.random.default_rng(25).normal(size=(8, 8))
        ablated = model.LossConfig(ablation="no_causal")
        tape = dc.Tape()
        _, b_ablated = model.total_loss(tape, params, target, source, ablated)
        assert b_ablated.causal == 0.0
        # manual control: zero adjacency + zero causal weight reproduces it
        control_params = params.copy()
        control_params.matrices["adjacency"][...] = np.zeros((8, 8))
        control = model.LossConfig(lambda_causal=0.0)
        tape = dc.Tape()
        _, b_control = model.total_loss(tape, control_params, target, source, control)
        assert b_ablated.interaction_target == pytest.approx(b_control.interaction_target)
        assert b_ablated.domain == pytest.approx(b_control.domain)

    def test_no_source_drops_source_terms(self):
        target, _ = make_batches(seed=26)
        params = make_params(seed=27)
        config = model.LossConfig(ablation="no_source")
        tape = dc.Tape()
        total, b = model.total_loss(tape, params, target, None, config)
        assert b.interaction_source == 0.0 and b.domain == 0.0
        assert np.isfinite(float(total.value))

    def test_missing_source_batch_rejected(self):
        target, _ = make_batches(seed=28)
        params = make_params(seed=29)
        with pytest.raises(ValueError, match="source batch"):
            model.total_loss(dc.Tape(), params, target, None, model.LossConfig())

    def test_grl_ascends_domain_loss_for_encoder(self):
        # descending the total-loss gradient must increase the domain loss
        # along the encoder block: the min-max realized as one minimization
        target, source = make_batches(seed=30)
        params = make_params(seed=31)
        config = model.LossConfig(lambda_causal=0.0, ablation="full")

        def domain_term(p):
            tape = dc.Tape()
            _, b = model.total_loss(tape, p, target, source, config)
            return b.domain

        tape = dc.Tape()
        total, _ = model.total_loss(tape, params, target, source, config)
        tape.backward(total)
        step = 1e-4
        grad = tape.grad("shared_encoder")
        stepped = params.copy()
        stepped.matrices["shared_encoder"][...] = (
            params.matrices["shared_encoder"] - step * grad)
        assert domain_term(stepped) > domain_term(params)

        disc_grads = {name: tape.grad(name) for name in ("disc_h1", "disc_h2", "disc_out")}
        stepped_disc = params.copy()
        for name, g in disc_grads.items():
            stepped_disc.matrices[name][...] = params.matrices[name] - step * g
        assert domain_term(stepped_disc) < domain_term(params)


    def test_spent_step_leaves_no_reference_cycles(self):
        target, source = make_batches(seed=44)
        params = make_params(seed=45)
        was_on = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            tape = dc.Tape()
            total, _ = model.total_loss(tape, params, target, source, model.LossConfig())
            tape.backward(total)
            grads = tape.grads()
            del tape, total
            assert gc.collect() == 0
            assert set(grads) == set(model.PARAM_SHAPES)
        finally:
            if was_on:
                gc.enable()

    def test_value_tape_gives_the_recorded_values(self):
        target, source = make_batches(seed=39)
        params = make_params(seed=40)
        params.matrices["adjacency"][...] = np.random.default_rng(41).normal(size=(8, 8)) * 0.1
        recorded = model.total_loss(dc.Tape(), params, target, source, model.LossConfig())
        value_only = model.total_loss(dc.Tape(grad=False), params, target, source,
                                      model.LossConfig())
        assert recorded[0].value == value_only[0].value
        assert recorded[1] == value_only[1]


def recorded_ops(monkeypatch, ablation, total_loss=model.total_loss):
    """How many nodes of each op one total_loss records on a recording tape."""
    ops = []
    record = dc.Tape.record

    def spy(tape, op, value, backward):
        ops.append(op)
        return record(tape, op, value, backward)

    monkeypatch.setattr(dc.Tape, "record", spy)
    target, source = make_batches(seed=46)
    params = make_params(seed=47)
    total_loss(dc.Tape(), params, target, source, model.LossConfig(ablation=ablation))
    return collections.Counter(ops)


class TestRecordedStep:
    # Each domain's interaction path is one dc.encode and one dc.head node,
    # and the domain loss one dc.domain_bce node; reference_ops.total_loss
    # is the same step as the 45 (no-causal 35) primitive nodes these replace.
    def test_full_step_records_13_nodes(self, monkeypatch):
        ops = recorded_ops(monkeypatch, "full")
        assert ops == {"mul": 1, "block": 1, "encode": 2, "head": 2, "domain_bce": 1,
                       "hconcat": 1, "reconstruction": 1, "acyclicity": 1,
                       "penalty_fold": 1, "l2_norm": 1, "weighted_sum": 1}
        assert sum(ops.values()) == 13

    def test_no_causal_step_records_7_nodes(self, monkeypatch):
        ops = recorded_ops(monkeypatch, "no_causal")
        assert ops == {"encode": 2, "head": 2, "domain_bce": 1, "l2_norm": 1,
                       "weighted_sum": 1}
        assert sum(ops.values()) == 7

    def test_no_source_step_records_10_nodes(self, monkeypatch):
        ops = recorded_ops(monkeypatch, "no_source")
        assert ops == {"mul": 1, "block": 2, "encode": 1, "head": 1, "reconstruction": 1,
                       "acyclicity": 1, "penalty_fold": 1, "l2_norm": 1,
                       "weighted_sum": 1}

    @pytest.mark.parametrize("ablation, nodes", [("full", 45), ("no_causal", 35)])
    def test_the_reference_chain_records_the_unfused_count(self, monkeypatch, ablation,
                                                           nodes):
        ops = recorded_ops(monkeypatch, ablation, ref.total_loss)
        assert sum(ops.values()) == nodes
        assert ops["encode"] == ops["head"] == ops["domain_bce"] == 0


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


def run_step(total_loss, params, target, source, config):
    """Loss value, breakdown and gradients of one step."""
    tape = dc.Tape()
    total, breakdown = total_loss(tape, params, target, source, config)
    tape.backward(total)
    return total.value, breakdown, tape.grads()


def assert_same_step(got, want):
    assert_same_bits(got[0], want[0], "total")
    assert got[1] == want[1]
    assert got[2].keys() == want[2].keys()
    for name in want[2]:
        assert_same_bits(got[2][name], want[2][name], name)


def zero_laden_params(seed):
    """Parameters with dead hidden units and all-zero rows, so ReLU masks,
    zero products and signed zeros all reach the gradients."""
    params = make_params(seed=seed, init_scale=0.5)
    m = params.matrices
    m["disc_h1"][0] = 0.0
    m["disc_h2"][0] = 0.0
    m["disc_h2"][1] = -np.abs(m["disc_h2"][1])
    m["shared_encoder"][2] = 0.0
    m["predictor_t"][:, 3] = 0.0
    m["item_emb_t"][:, 0] = 0.0
    m["adjacency"][...] = np.random.default_rng(seed).uniform(-0.2, 0.2, m["adjacency"].shape)
    return params


def training_shape_params(seed, k=8, n_users=50, n_items=60):
    """Parameters at the shape where OpenBLAS rounds a product differently
    when an operand's memory order changes."""
    dims = model.ModelDims(k=k, n_users=n_users, n_source_items=n_items,
                           n_target_items=n_items)
    params = model.ModelParams.init(dims, seed=seed, init_scale=0.5)
    params.matrices["adjacency"][...] = np.random.default_rng(seed).uniform(
        -0.2, 0.2, (2 * k, 2 * k))
    return params


class TestScoringIsExact:
    # model.score_candidates runs the forward helpers of dc.encode and
    # dc.head; reference_ops.score_candidates is the same scorer as
    # primitive nodes
    def test_scores_match_the_primitive_chain_bit_for_bit(self):
        rng = np.random.default_rng(66)
        cases = [(zero_laden_params(65), np.array([0, 3, 5, 3]),
                  rng.integers(0, DIMS.n_target_items, (4, 5)))]
        params = training_shape_params(67)
        cases.append((params, rng.integers(0, params.dims.n_users, 16),
                      rng.integers(0, params.dims.n_target_items, (16, 100))))
        for params, users, items in cases:
            for a in (params.effective_adjacency_matrix(), None):
                tape = dc.Tape(grad=False)
                nodes = params.register(tape)
                a_pref = (None if a is None
                          else causal.preference_block(tape.constant(a), params.dims.k))
                assert_same_bits(model.score_candidates(nodes, users, items, a_pref),
                                 ref.score_candidates(nodes, users, items, a_pref),
                                 "scores")


class TestProbeIsExact:
    # the probe runs the forward helpers of dc.encode and dc.domain_bce;
    # reference_ops.probe_outputs is grad_reverse, matmul, relu, matmul,
    # relu, matmul and sigmoid on the shared preferences
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outputs_match_the_primitive_chain_bit_for_bit(self, monkeypatch, seed):
        for params in (make_params(seed=70 + seed), zero_laden_params(80 + seed),
                       training_shape_params(90 + seed)):
            want = ref.probe_outputs(params.register(dc.Tape(grad=False)),
                                     params.dims.n_users)
            assert_same_bits(probe_outputs(monkeypatch, params), want, "outputs")


PARAM_SETS = {"toy": lambda: make_params(seed=120, init_scale=0.5),
              "zero_laden": lambda: zero_laden_params(121),
              "training_shape": lambda: training_shape_params(122)}


def encodings(k, n, seed):
    """Encode outputs (3k x n) with a zero column and a row of -0.0."""
    e = np.random.default_rng(seed).normal(size=(3 * k, n))
    e[:, 1] = 0.0
    e[k + 1] = -0.0
    return e


def run_node(build, values):
    """Value and gradients of build(tape, nodes) over values packed as
    one parameter vector."""
    tape = dc.Tape()
    loss = build(tape, tape.params(*dc.pack(values)))
    tape.backward(loss)
    return loss.value, tape.grads()


def assert_same_node(got, want):
    assert_same_bits(got[0], want[0], "value")
    assert got[1].keys() == want[1].keys()
    for name in want[1]:
        assert_same_bits(got[1][name], want[1][name], name)


class TestFusedNodesAreExact:
    # dc.head and dc.domain_bce against their primitive chains on given
    # encode outputs: the value and every gradient, byte for byte
    @pytest.mark.parametrize("causal_path", [True, False], ids=["causal", "no_causal"])
    @pytest.mark.parametrize("which", sorted(PARAM_SETS))
    def test_head_matches_the_primitive_chain_bit_for_bit(self, which, causal_path):
        params = PARAM_SETS[which]()
        k, n = params.dims.k, 12
        rng = np.random.default_rng(190)
        values = {"e": encodings(k, n, 191),
                  "a_pref": params.effective_adjacency_matrix()[:k, k:],
                  **{name: params.matrices[name]
                     for name in ("fusion_t", "item_emb_t", "predictor_t")}}
        items = rng.integers(0, params.dims.n_target_items, n)
        items[4] = items[3]
        labels = rng.integers(0, 2, n).astype(float)

        def fused(tape, nodes):
            e = nodes["e"]
            return dc.head(e, e.value[:k], nodes["a_pref"] if causal_path else None,
                           nodes["fusion_t"], nodes["item_emb_t"], items,
                           nodes["predictor_t"], labels)

        def chain(tape, nodes):
            u = dc.block(nodes["e"], 0, k, 0, n)
            s = dc.block(nodes["e"], 2 * k, 3 * k, 0, n)
            u_causal = ref.matmul_t(nodes["a_pref"], u) if causal_path else None
            item_emb = ref.gather_cols(nodes["item_emb_t"], items)
            probs = ref.predict(nodes, "target", s, u_causal, item_emb)
            return ref.interaction_loss(probs, labels)

        assert_same_node(run_node(fused, values), run_node(chain, values))

    @pytest.mark.parametrize("grl_scale", [0.0, 1.0])
    @pytest.mark.parametrize("which", sorted(PARAM_SETS))
    def test_domain_bce_matches_the_primitive_chain_bit_for_bit(self, which, grl_scale):
        params = PARAM_SETS[which]()
        k = params.dims.k
        values = {"source": encodings(k, 7, 192), "target": encodings(k, 5, 193),
                  **{name: params.matrices[name]
                     for name in ("disc_h1", "disc_h2", "disc_out")}}

        def fused(tape, nodes):
            return dc.domain_bce(nodes["source"], nodes["target"], nodes["disc_h1"],
                                 nodes["disc_h2"], nodes["disc_out"], grl_scale)

        def chain(tape, nodes):
            shared = dc.hconcat(dc.block(nodes["source"], k, 2 * k, 0, 7),
                                dc.block(nodes["target"], k, 2 * k, 0, 5))
            lhat = ref.discriminate(nodes, shared, grl_scale)
            return ref.domain_loss(lhat, ["source"] * 7 + ["target"] * 5)

        assert_same_node(run_node(fused, values), run_node(chain, values))


def repeating_batches(seed, n):
    """make_batches, plus one batch of n copies of one (user, item) pair."""
    target, source = make_batches(seed=seed, n=n)
    rng = np.random.default_rng(seed)
    same = model.Batch(users=np.full(n, 2), items=np.full(n, 5),
                       labels=rng.integers(0, 2, n).astype(float))
    return [(target, source), (same, source), (target, same)]


class TestFusedStepIsExact:
    # model.total_loss against its primitive chain, reference_ops.total_loss:
    # the loss, the breakdown and every gradient, byte for byte
    @pytest.mark.parametrize("n", [12, 7], ids=["even", "odd"])
    @pytest.mark.parametrize("strict", [False, True], ids=["mask", "strict_mask"])
    @pytest.mark.parametrize("grl_scale", [0.0, 1.0])
    @pytest.mark.parametrize("ablation", ["full", "no_causal", "no_source"])
    def test_step_matches_the_primitive_chain_bit_for_bit(self, ablation, grl_scale,
                                                         strict, n):
        config = model.LossConfig(grl_scale=grl_scale, ablation=ablation)
        for seed in (0, 1):
            for params in (make_params(seed=140 + seed), zero_laden_params(150 + seed)):
                params.strict_causal_mask = strict
                for target, source in repeating_batches(160 + seed, n):
                    assert_same_step(
                        run_step(model.total_loss, params, target, source, config),
                        run_step(ref.total_loss, params, target, source, config))

    @pytest.mark.parametrize("n", [64, 33], ids=["full", "odd"])
    @pytest.mark.parametrize("ablation", ["full", "no_causal", "no_source"])
    def test_training_shape_matches_the_primitive_chain_bit_for_bit(self, ablation, n):
        # at k = 8 and 64-column batches OpenBLAS rounds a product differently
        # when an operand's memory order changes; the toy shape above does not
        k, n_users, n_items = 8, 50, 60
        dims = model.ModelDims(k=k, n_users=n_users, n_source_items=n_items,
                               n_target_items=n_items)
        params = model.ModelParams.init(dims, seed=174, init_scale=0.5)
        rng = np.random.default_rng(175)
        params.matrices["adjacency"][...] = rng.uniform(-0.2, 0.2, (2 * k, 2 * k))
        target, source = (model.Batch(users=rng.integers(0, n_users, n),
                                      items=rng.integers(0, n_items, n),
                                      labels=rng.integers(0, 2, n).astype(float))
                          for _ in range(2))
        config = model.LossConfig(ablation=ablation)
        assert_same_step(run_step(model.total_loss, params, target, source, config),
                         run_step(ref.total_loss, params, target, source, config))

    def test_value_tape_matches_the_primitive_chain(self):
        target, source = make_batches(seed=170, n=9)
        params = zero_laden_params(171)
        for ablation in ("full", "no_causal", "no_source"):
            config = model.LossConfig(ablation=ablation)
            fused = model.total_loss(dc.Tape(grad=False), params, target, source, config)
            chain = ref.total_loss(dc.Tape(grad=False), params, target, source, config)
            assert_same_bits(fused[0].value, chain[0].value, ablation)
            assert fused[1] == chain[1]

    def test_overflowing_encoder_is_named(self):
        target, source = make_batches(seed=172)
        params = make_params(seed=173)
        params.matrices["shared_encoder"][...] = 1e300
        params.matrices["user_att_t"][...] = -1e300
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dc.NonFiniteError, match="^encode produced"):
                model.total_loss(dc.Tape(), params, target, source, model.LossConfig())


def fd_error(build, values, reversed_names=(), step=1e-5):
    """Worst finite-difference error of build(tape, nodes) -> scalar node
    over values packed as one parameter vector. The gradients of
    reversed_names are negated first: behind a gradient-reversal scale of
    1 the tape hands those the negative of the loss's gradient."""
    def run(vals):
        tape = dc.Tape()
        loss = build(tape, tape.params(*dc.pack(vals)))
        tape.backward(loss)
        return float(loss.value), tape.grads()

    grads = run(values)[1]
    for name in reversed_names:
        grads[name] = -grads[name]
    return max(dc.finite_diff_details(lambda vals: run(vals)[0], values, grads,
                                      step=step).values())


class TestFusedDomainNodesGradient:
    K, N = 3, 5
    USERS = np.array([0, 2, 2, 3, 0])
    ITEMS = np.array([1, 1, 4, 0, 2])
    LABELS = np.array([1.0, 0.0, 1.0, 1.0, 0.0])

    @staticmethod
    def values(seed, **shapes):
        # small enough that no probability reaches the BCE clamp
        rng = np.random.default_rng(seed)
        return {name: rng.normal(size=shape) * 0.5 for name, shape in shapes.items()}

    def test_encode_matches_finite_differences(self):
        k = self.K
        values = self.values(180, table=(k, 4), shared=(k, k), specific=(k, k))

        def build(tape, n):
            e, att = dc.encode(n["table"], self.USERS, n["shared"], n["specific"])
            assert np.array_equal(e.value[:k], att)
            weights = tape.constant(np.random.default_rng(181).normal(size=e.shape))
            return ref.sq_l2(dc.mul(e, weights))

        assert fd_error(build, values) < 1e-4

    @pytest.mark.parametrize("causal_path", [True, False], ids=["causal", "no_causal"])
    def test_head_matches_finite_differences(self, causal_path):
        k, n = self.K, self.N
        values = self.values(182, e=(3 * k, n), a_pref=(k, k), fusion=(k, 2 * k),
                             table=(k, 6), predictor=(2, k))
        if not causal_path:
            values["fusion"][:, k:] = 0.0   # unread: its gradient stays zero

        def build(tape, nodes):
            e = nodes["e"]
            a_pref = nodes["a_pref"] if causal_path else None
            # att is u, the rows 0:k of E, as encode returns them
            return dc.head(e, e.value[:k], a_pref, nodes["fusion"], nodes["table"],
                           self.ITEMS, nodes["predictor"], self.LABELS)

        assert fd_error(build, values) < 1e-4

    @pytest.mark.parametrize("grl_scale", [0.0, 1.0])
    def test_domain_bce_matches_finite_differences(self, grl_scale):
        k = self.K
        values = self.values(183, source=(3 * k, 4), target=(3 * k, 3), w1=(k, k),
                             w2=(k, k), w3=(2, k))

        def build(tape, n):
            return dc.domain_bce(n["source"], n["target"], n["w1"], n["w2"], n["w3"],
                                 grl_scale)

        if grl_scale:
            # behind the reversal the encodings take the negated gradient
            assert fd_error(build, values, reversed_names=("source", "target")) < 1e-4
            return
        tape = dc.Tape()
        tape.backward(build(tape, tape.params(*dc.pack(values))))
        for name in ("source", "target"):
            assert not np.any(tape.grad(name)), name   # blocked by scale 0
        encodings = {name: values.pop(name) for name in ("source", "target")}

        def build_on_constants(tape, n):
            return build(tape, {**n, **{name: tape.constant(v)
                                        for name, v in encodings.items()}})

        assert fd_error(build_on_constants, values) < 1e-4

    def test_mismatched_operands_rejected(self):
        k = self.K
        tape = dc.Tape()
        n = tape.params(*dc.pack(self.values(184, table=(k, 4), sq=(k, k), wide=(k, k + 1),
                                                 e=(3 * k, 5), fusion=(k, 2 * k),
                                                 predictor=(2, k))))
        with pytest.raises(dc.ShapeError, match="encode"):
            dc.encode(n["table"], self.USERS, n["sq"], n["wide"])
        with pytest.raises(dc.ShapeError, match="encode: index out of range"):
            dc.encode(n["table"], [0, 4], n["sq"], n["sq"])
        att = n["e"].value[:k]
        with pytest.raises(dc.ShapeError, match="head"):
            dc.head(n["e"], att, None, n["fusion"], n["table"], [0, 1], n["predictor"],
                    [1.0, 0.0])
        with pytest.raises(dc.ShapeError, match="domain_bce"):
            dc.domain_bce(n["sq"], n["e"], n["sq"], n["sq"], n["predictor"], 1.0)
        with pytest.raises(ValueError, match="grl_scale must be >= 0"):
            dc.domain_bce(n["e"], n["e"], n["sq"], n["sq"], n["predictor"], -1.0)


class TestNoCausalFusion:
    def test_scores_ignore_the_right_half_of_fusion(self):
        params = make_params(seed=48)
        users = np.array([1, 4, 4])
        items = np.random.default_rng(49).integers(0, DIMS.n_target_items, (3, 6))
        base = score_block(params, None, users, items)
        params.matrices["fusion_t"][:, DIMS.k:] += 5.0
        assert np.array_equal(score_block(params, None, users, items), base)

    def test_right_half_of_fusion_gets_no_gradient(self):
        # lambda_reg 0: the parameter norm would touch every entry
        target, source = make_batches(seed=50)
        tape = dc.Tape()
        total, _ = model.total_loss(tape, make_params(seed=51), target, source,
                                    model.LossConfig(ablation="no_causal", lambda_reg=0.0))
        tape.backward(total)
        for name in ("fusion_s", "fusion_t"):
            grad = tape.grad(name)
            assert np.all(grad[:, DIMS.k:] == 0.0), name
            assert np.any(grad[:, :DIMS.k] != 0.0), name


class TestEndToEndGradient:
    def test_full_loss_passes_finite_difference_check(self):
        from causalcdr import gradcheck

        report = gradcheck.run_gradient_check(seed=0)
        assert report.passed, report.per_block
        assert set(report.per_block) == set(model.PARAM_SHAPES)

    def test_corrupted_gradient_fails_naming_block(self):
        from causalcdr import gradcheck

        report = gradcheck.run_gradient_check(seed=0, corrupt_block="disc_h1")
        assert not report.passed
        assert report.failing_blocks() == ["disc_h1"]

    @pytest.mark.parametrize("kwargs, message", [
        ({"corrupt_block": "fusion_tt"}, "unknown parameter block 'fusion_tt'"),
        ({"grl_scale": -1.0}, "grl_scale must be finite and >= 0"),
        ({"grl_scale": float("nan")}, "grl_scale must be finite and >= 0"),
    ], ids=["unknown_block", "negative_grl_scale", "nan_grl_scale"])
    def test_bad_request_rejected(self, kwargs, message):
        from causalcdr import gradcheck

        with pytest.raises(ValueError, match=message):
            gradcheck.run_gradient_check(seed=0, **kwargs)

    def test_analytic_gradient_takes_one_backward_pass(self, monkeypatch):
        from causalcdr import gradcheck

        calls = []
        backward = dc.Tape.backward

        def counted(tape, loss):
            calls.append(loss)
            backward(tape, loss)

        monkeypatch.setattr(dc.Tape, "backward", counted)
        gradcheck.run_gradient_check(seed=0)
        assert len(calls) == 1

    def test_reversed_blocks_reported_separately(self):
        from causalcdr import gradcheck

        assert "shared_encoder" in gradcheck.REVERSED_BLOCKS
        report = gradcheck.run_gradient_check(seed=1, grl_scale=0.5)
        assert report.passed
        assert report.grl_scale == 0.5


class TestToyInstance:
    # sha256 of each toy_instance(seed) parameter vector: the kink scan that
    # resamples the initialization picks the same draw for every seed
    PINNED = {
        0: "4c92041502e8052a6f5923eda561776fae94228345993c42e5de541554637b1a",
        1: "91cf59a137774a934dec2465c104bc265361b38390bf1faa78d0a9c44ceb65c5",
        2: "0412fb8ceae25b23be09a46c0d7104b00f18e1b1eeecdee7e88977969732f0ec",
        3: "66c389cbc7c3422933161ecec0c54daf9e8b4f1a9769643c65aa8bd84053a88f",
        4: "c933cd61f140bad78d6b87a24dbc01608d815f5ebfef3800da58b0d0bf96ada2",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_packed_vector_is_pinned(self, seed):
        from causalcdr import gradcheck

        params, _, _ = gradcheck.toy_instance(seed)
        assert hashlib.sha256(params.flat.tobytes()).hexdigest() == self.PINNED[seed]

    def test_every_relu_clears_the_kink_margin(self):
        from causalcdr import gradcheck

        params, target, source = gradcheck.toy_instance(0)
        nodes = params.register(dc.Tape(grad=False))
        shared = [model.encode_users(nodes, domain, batch.users)[1]
                  for domain, batch in (("source", source), ("target", target))]
        assert all(np.abs(z).min() > gradcheck.KINK_MARGIN for z in shared)
        x = np.maximum(np.concatenate(shared, axis=1), 0.0)
        h1_pre = params.matrices["disc_h1"] @ x
        h2_pre = params.matrices["disc_h2"] @ np.maximum(h1_pre, 0.0)
        for pre in (h1_pre, h2_pre):
            assert np.all((pre == 0) | (np.abs(pre) > gradcheck.KINK_MARGIN))


class TestPackedLayout:
    def test_every_constructor_packs_in_mapping_order(self):
        params = make_params(seed=3)
        direct = model.ModelParams(DIMS, dict(sorted(params.matrices.items())))
        for p, names in ((params, list(model.PARAM_SHAPES)),
                         (direct, sorted(model.PARAM_SHAPES))):
            assert list(p.matrices) == names
            assert p.flat.flags.c_contiguous
            assert np.array_equal(p.flat, np.concatenate(
                [p.matrices[name].ravel() for name in names]))
            assert all(m.base is p.flat for m in p.matrices.values())
        assert direct.flat is not params.flat

    @pytest.mark.parametrize("grad", [True, False], ids=["recording", "value_only"])
    def test_nan_in_one_matrix_is_named_by_register(self, grad):
        params = make_params(seed=4)
        params.matrices["fusion_t"][1, 2] = np.nan
        with pytest.raises(dc.NonFiniteError, match="param 'fusion_t'"):
            params.register(dc.Tape(grad=grad))

    def test_a_rebound_matrix_is_rejected_by_register(self):
        params = make_params(seed=5)
        params.matrices["disc_h1"] = np.eye(DIMS.k)
        with pytest.raises(dc.ShapeError, match="param 'disc_h1' is not a view"):
            params.register(dc.Tape())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = make_params(seed=35)
        path = tmp_path / "model.nmc"
        params.save(path, meta={"config_hash": "abc", "seed": "7"})
        loaded = model.ModelParams.load(path)
        assert loaded.dims == params.dims
        for name, matrix in params.matrices.items():
            assert np.array_equal(loaded.matrices[name], matrix)

    def test_load_then_copy_keeps_the_matrices_packed(self, tmp_path):
        params = make_params(seed=38)
        path = tmp_path / "model.nmc"
        params.save(path)
        loaded = model.ModelParams.load(path)
        copied = loaded.copy()
        for p in (loaded, copied):
            assert np.array_equal(p.flat, np.concatenate(
                [m.ravel() for m in p.matrices.values()]))
            for name, matrix in p.matrices.items():
                assert matrix.base is p.flat
                assert np.array_equal(matrix, params.matrices[name]), name
        copied.matrices["adjacency"][0, 0] = 5.0
        assert loaded.matrices["adjacency"][0, 0] == params.matrices["adjacency"][0, 0]

    def test_missing_matrices_named(self, tmp_path):
        params = make_params(seed=42)
        path = tmp_path / "model.nmc"
        matrixio.write_container(path, {"adjacency": params.matrices["adjacency"]})
        with pytest.raises(matrixio.ContainerError, match="missing matrices") as err:
            model.ModelParams.load(path)
        for name in model.PARAM_SHAPES:
            if name != "adjacency":
                assert name in str(err.value)

    @pytest.mark.parametrize("flag", ["x", "2", "true", ""])
    def test_strict_mask_flag_other_than_0_or_1_named(self, tmp_path, flag):
        path = tmp_path / "model.nmc"
        matrixio.write_container(path, make_params(seed=44).matrices,
                                 {"strict_causal_mask": flag})
        with pytest.raises(matrixio.ContainerError,
                           match=f"model.nmc: strict_causal_mask is '{flag}', "
                                 f"expected '0' or '1'"):
            model.ModelParams.load(path)

    def test_wrong_shapes_named(self, tmp_path):
        matrices = dict(make_params(seed=43).matrices)
        matrices["disc_h2"] = np.zeros((DIMS.k, DIMS.k + 1))
        matrices["fusion_s"] = np.zeros((DIMS.k, DIMS.k))
        path = tmp_path / "model.nmc"
        matrixio.write_container(path, matrices, {"strict_causal_mask": "0"})
        with pytest.raises(matrixio.ContainerError,
                           match=r"disc_h2 \(4, 5\) \(expected \(4, 4\)\), "
                                 r"fusion_s \(4, 4\) \(expected \(4, 8\)\)"):
            model.ModelParams.load(path)

    def test_non_finite_matrices_named(self, tmp_path):
        params = make_params(seed=45)
        params.matrices["disc_h1"][0, 1] = np.nan
        params.matrices["item_emb_t"][2, 0] = -np.inf
        path = tmp_path / "model.nmc"
        params.save(path)
        with pytest.raises(matrixio.ContainerError,
                           match=r"model.nmc: non-finite values in matrices "
                                 r"item_emb_t, disc_h1$"):
            model.ModelParams.load(path)

    def test_byte_identical_writes(self, tmp_path):
        params = make_params(seed=36)
        a, b = tmp_path / "a.nmc", tmp_path / "b.nmc"
        params.save(a, meta={"seed": "1"})
        params.save(b, meta={"seed": "1"})
        assert a.read_bytes() == b.read_bytes()
