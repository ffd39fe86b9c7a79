import math

import numpy as np
import pytest

from causalcdr import causal, diffcore as dc, model

import reference_ops as ref


def loss_value(a, h, k, weights=None):
    weights = weights or model.LossConfig().penalty
    tape = dc.Tape()
    a_node = tape.param("a", a)
    a_eff = causal.effective_adjacency(a_node, k)
    total, terms = causal.causal_loss(a_eff, tape.constant(h), k, weights)
    tape.backward(total)
    return float(total.value), terms, tape.grad("a")


def reconstruct(a, h):
    """A^T H as the causal loss computes it: every node from its parents."""
    tape = dc.Tape(grad=False)
    return ref.matmul_t(tape.constant(a), tape.constant(h)).value


class TestScmReconstruct:
    def test_zero_adjacency(self):
        assert np.array_equal(reconstruct(np.zeros((8, 8)), np.ones((8, 1))),
                              np.zeros((8, 1)))

    def test_single_edge_copies_attribute_into_preference(self):
        k = 4
        a = np.zeros((2 * k, 2 * k))
        a[0, k] = 1.0
        h = np.zeros((2 * k, 1))
        h[0] = 1.0
        expected = np.zeros((2 * k, 1))
        expected[k] = 1.0
        assert np.array_equal(reconstruct(a, h), expected)
        # a sample that agrees with the edge leaves only the root unexplained
        _, terms, _ = loss_value(a, h + expected, k)
        assert terms.reconstruction == 1.0

    def test_random_case_matches_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(8, 8))
        h = rng.normal(size=(8, 3))
        oracle = np.array([[sum(a[i, j] * h[i, n] for i in range(8)) for n in range(3)]
                           for j in range(8)])
        assert np.allclose(reconstruct(a, h), oracle)
        np.fill_diagonal(a, 0.0)
        oracle = np.array([[sum(a[i, j] * h[i, n] for i in range(8)) for n in range(3)]
                           for j in range(8)])
        _, terms, _ = loss_value(a, h, 4)
        assert terms.reconstruction == pytest.approx(np.sum((h - oracle) ** 2) / 3,
                                                     rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(dc.ShapeError):
            reconstruct(np.zeros((4, 4)), np.zeros((6, 1)))
        with pytest.raises(dc.ShapeError):
            loss_value(np.zeros((4, 4)), np.zeros((6, 1)), 2)


class TestCausalLoss:
    def test_zero_adjacency_terms(self):
        k = 4
        rng = np.random.default_rng(0)
        h = rng.normal(size=(2 * k, 5))
        _, terms, _ = loss_value(np.zeros((2 * k, 2 * k)), h, k)
        assert terms.reconstruction == pytest.approx(np.sum(h * h) / 5)
        assert terms.dag == pytest.approx(0.0, abs=1e-12)
        assert terms.direction == 0.0
        assert terms.sparsity == 0.0
        # k columns each contribute -log(eps): large but finite
        assert terms.not_root == pytest.approx(-k * math.log(causal.LOG_EPS))

    def test_fixed_points_give_zero_reconstruction(self):
        # h = a^T h exactly: the symmetric swap graph holds constant vectors fixed
        k = 1
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        h = np.tile(np.array([[0.7], [0.7]]), (1, 6))
        _, terms, _ = loss_value(a, h, k)
        assert terms.reconstruction == pytest.approx(0.0, abs=1e-18)

    def test_terms_match_scalar_oracles(self):
        k = 4
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2 * k, 2 * k)) * 0.3
        np.fill_diagonal(a, 0.0)
        h = rng.normal(size=(2 * k, 4))
        _, terms, _ = loss_value(a, h, k)
        rec = np.mean([np.sum((h[:, i] - a.T @ h[:, i]) ** 2) for i in range(4)])
        assert terms.reconstruction == pytest.approx(rec, rel=1e-12)
        assert terms.dag == pytest.approx(dc.acyclicity(a), rel=1e-12)
        assert terms.direction == pytest.approx(np.abs(a[k:, :k]).sum(), rel=1e-12)
        pnr = -sum(math.log(np.abs(a[:, i]).sum() + causal.LOG_EPS) for i in range(k, 2 * k))
        assert terms.not_root == pytest.approx(pnr, rel=1e-12)
        assert terms.sparsity == pytest.approx(np.abs(a).sum(), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        k = 3
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2 * k, 2 * k)) * 0.4
        h = rng.normal(size=(2 * k, 5))

        def loss_fn(p):
            return loss_value(p["a"], h, k)[0]

        errors = dc.finite_diff_details(loss_fn, {"a": a}, {"a": loss_value(a, h, k)[2]},
                                        step=1e-5)
        assert max(errors.values()) < 1e-6

    def test_empty_batch_rejected(self):
        k = 2
        with pytest.raises(ValueError):
            loss_value(np.zeros((2 * k, 2 * k)), np.zeros((2 * k, 0)), k)

    def test_diagonal_is_inert(self):
        k = 2
        rng = np.random.default_rng(3)
        h = rng.normal(size=(2 * k, 4))
        a = np.zeros((2 * k, 2 * k))
        base, _, grad = loss_value(a, h, k)
        a2 = a.copy()
        np.fill_diagonal(a2, 5.0)
        masked, _, _ = loss_value(a2, h, k)
        assert masked == pytest.approx(base)
        assert np.all(np.diag(grad) == 0.0)

    def test_not_root_decreases_with_column_mass(self):
        k = 2
        h = np.zeros((2 * k, 1))
        weights = causal.PenaltyWeights(dag=0, direction=0, not_root=1.0, sparsity=0)
        values = []
        for mass in (0.1, 0.5, 1.0):
            a = np.zeros((2 * k, 2 * k))
            a[0, k] = mass
            a[0, k + 1] = mass
            _, terms, _ = loss_value(a, h, k, weights)
            values.append(terms.not_root)
        assert values[0] > values[1] > values[2]


# The causal loss as it was composed before the not-a-root penalty and the
# weighted total became single nodes: per preference column
# block -> l1 -> +eps -> log -> *(-1), summed one add at a time, and
# a fold of adds over scale() nodes for the total. Each add is a two-term
# weighted_sum with weights 1.0, which is bit-equal to a plain addition in
# value and gradient. The fused loss must reproduce the value, terms and
# gradients bit for bit.

def _accum(node, g):
    if node.grad is None:
        node.grad = np.zeros_like(node.value)
    node.grad += g


def _add_scalar(x, c):
    return x.tape.record("add_scalar", x.value + c, lambda g: _accum(x, g))


def _log_scalar(x):
    return x.tape.record("log_scalar", np.asarray(np.log(x.value)),
                         lambda g: _accum(x, g / x.value))


def _add_n(nodes):
    out = nodes[0]
    for n in nodes[1:]:
        out = dc.weighted_sum([out, n], [1.0, 1.0])
    return out


def reference_causal_loss(a_eff, h, k, weights):
    rec = ref.scale(ref.sq_l2(ref.sub(h, ref.matmul_t(a_eff, h))), 1.0 / h.shape[1])
    dag = dc.acyclicity_term(a_eff)
    direction = ref.l1(dc.block(a_eff, k, 2 * k, 0, k))
    col_terms = []
    for i in range(k, 2 * k):
        col_mass = ref.l1(dc.block(a_eff, 0, 2 * k, i, i + 1))
        col_terms.append(ref.scale(_log_scalar(_add_scalar(col_mass, causal.LOG_EPS)), -1.0))
    not_root = _add_n(col_terms)
    sparsity = ref.l1(a_eff)
    terms = causal.CausalLossTerms(
        reconstruction=float(rec.value), dag=float(dag.value),
        direction=float(direction.value), not_root=float(not_root.value),
        sparsity=float(sparsity.value))
    total = _add_n([rec, ref.scale(dag, weights.dag),
                    ref.scale(direction, weights.direction),
                    ref.scale(not_root, weights.not_root),
                    ref.scale(sparsity, weights.sparsity)])
    return total, terms


def run_in_graph(loss_fn, a, h, k, weights):
    """The loss inside a larger graph: a_eff also feeds an earlier node, as
    in the joint objective, and the total reaches the root scaled."""
    tape = dc.Tape()
    a_eff = causal.effective_adjacency(tape.param("a", a), k)
    h_node = tape.param("h", h)
    upstream = ref.matmul_t(causal.preference_block(a_eff, k),
                           dc.block(h_node, 0, k, 0, h.shape[1]))
    total, terms = loss_fn(a_eff, h_node, k, weights)
    tape.backward(dc.weighted_sum([ref.scale(total, 0.7), ref.sq_l2(upstream)], [1.0, 1.0]))
    return total.value, terms, tape.grads()


def adjacency_case(kind, k, rng):
    a = rng.normal(size=(2 * k, 2 * k)) * rng.choice([0.01, 0.3, 3.0])
    if kind == "sparse":
        a[rng.random(a.shape) < 0.8] = 0.0
        a[:, k + rng.integers(k)] = 0.0      # a preference column with no mass
    elif kind == "zero":
        a[:] = 0.0
    return a


class TestFusedLossIsExact:
    @pytest.mark.parametrize("kind", ["random", "sparse", "zero"])
    @pytest.mark.parametrize("k", [1, 3, 4, 8, 16])
    def test_matches_unfused_composition_bit_for_bit(self, kind, k):
        rng = np.random.default_rng(1000 * k + len(kind))
        weights_list = [model.LossConfig().penalty,
                        causal.PenaltyWeights(dag=500.0, direction=1.0,
                                              not_root=0.1, sparsity=0.05)]
        for weights in weights_list:
            for _ in range(3):
                a = adjacency_case(kind, k, rng)
                h = rng.normal(size=(2 * k, 7))
                value, terms, grads = run_in_graph(causal.causal_loss, a, h, k, weights)
                ref_value, ref_terms, ref_grads = run_in_graph(
                    reference_causal_loss, a, h, k, weights)
                assert value == ref_value
                assert terms == ref_terms
                assert grads.keys() == ref_grads.keys()
                for name in ref_grads:
                    assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("strict", [False, True])
def test_adjacency_mask_is_built_once_and_read_only(strict):
    mask = causal.adjacency_mask(3, strict)
    assert causal.adjacency_mask(3, strict) is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 1] = 2.0
    assert np.all(np.diag(mask) == 0.0)


def test_constants_take_no_gradient(monkeypatch):
    # the mask of effective_adjacency and the samples of the loss are tape
    # constants: backward computes no gradient for either
    made = []
    constant = dc.Tape.constant

    def spy(tape, value):
        made.append(constant(tape, value))
        return made[-1]

    monkeypatch.setattr(dc.Tape, "constant", spy)
    rng = np.random.default_rng(5)
    a, h, k = rng.normal(size=(4, 4)), rng.normal(size=(4, 6)), 2
    value, _, grad = loss_value(a, h, k)
    assert [node.op for node in made] == ["const", "const"]
    assert [node.value.shape for node in made] == [(4, 4), (4, 6)]
    assert [node.grad for node in made] == [None, None]
    monkeypatch.undo()
    # the samples as a parameter: the adjacency's gradient keeps its bytes
    tape = dc.Tape()
    a_eff = causal.effective_adjacency(tape.param("a", a), k)
    total, _ = causal.causal_loss(a_eff, tape.param("h", h), k, model.LossConfig().penalty)
    tape.backward(total)
    assert float(total.value) == value
    assert np.array_equal(tape.grad("a"), grad)


class TestDivergentAdjacency:
    @pytest.mark.parametrize("a_scale, h_scale, term", [
        (1e100, 1.0, "acyclicity"),      # exp(a * a) overflows; the residual does not
        (1e160, 1.0, "reconstruction"),  # the squared residual overflows first
        (1e160, 0.0, "acyclicity"),      # a * a itself overflows
    ])
    def test_error_names_the_failing_term(self, a_scale, h_scale, term):
        k = 4
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2 * k, 2 * k)) * a_scale
        h = rng.normal(size=(2 * k, 7)) * h_scale
        tape = dc.Tape()
        a_eff = causal.effective_adjacency(tape.param("a", a), k)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(dc.NonFiniteError,
                               match=f"^{term} produced a non-finite value$"):
                causal.causal_loss(a_eff, tape.constant(h), k, model.LossConfig().penalty)


def infer(a, u, k):
    """The causal-invariant preference of attribute columns u on a value
    tape, as the model takes it: the attribute->preference block applied
    to u."""
    tape = dc.Tape(grad=False)
    return ref.matmul_t(causal.preference_block(tape.constant(a), k),
                       tape.constant(u)).value


class TestInferCausalPreference:
    def test_zero_adjacency(self):
        assert np.array_equal(infer(np.zeros((8, 8)), np.ones((4, 1)), 4),
                              np.zeros((4, 1)))

    def test_single_edge(self):
        k = 4
        a = np.zeros((2 * k, 2 * k))
        a[0, k] = 2.0
        u = np.zeros((k, 1))
        u[0] = 1.0
        expected = np.zeros((k, 1))
        expected[0] = 2.0
        assert np.array_equal(infer(a, u, k), expected)

    def test_matches_block_product(self):
        rng = np.random.default_rng(5)
        k = 4
        a = rng.normal(size=(2 * k, 2 * k))
        u = rng.normal(size=(k, 1))
        assert np.allclose(infer(a, u, k), a[:k, k:].T @ u)

    def test_linear_in_input(self):
        rng = np.random.default_rng(6)
        k = 4
        a = rng.normal(size=(2 * k, 2 * k))
        x, y = rng.normal(size=(k, 1)), rng.normal(size=(k, 1))
        lhs = infer(a, 2.0 * x + 3.0 * y, k)
        rhs = 2.0 * infer(a, x, k) + 3.0 * infer(a, y, k)
        assert np.allclose(lhs, rhs)

    def test_node_version_matches_numpy(self):
        rng = np.random.default_rng(8)
        k = 3
        a = rng.normal(size=(2 * k, 2 * k))
        np.fill_diagonal(a, 0.0)
        u = rng.normal(size=(k, 4))
        tape = dc.Tape()
        a_eff = causal.effective_adjacency(tape.param("a", a), k)
        block = causal.preference_block(a_eff, k)
        assert np.array_equal(block.value, a[:k, k:])
        out = ref.matmul_t(block, tape.constant(u))
        assert np.allclose(out.value, a[:k, k:].T @ u)
        assert np.array_equal(out.value, infer(a_eff.value, u, k))
        with pytest.raises(dc.ShapeError):
            ref.matmul_t(block, tape.constant(u[:, 0]))
        with pytest.raises(dc.ShapeError, match="adjacency must be 6x6"):
            causal.preference_block(tape.constant(a[:, :k]), k)


class TestExtractGraph:
    def test_threshold_above_max_gives_empty_and_zero_f1(self):
        a = np.full((4, 4), 0.2)
        out = causal.extract_graph(a, 0.5, reference_edges={(0, 1)})
        assert out.edges == set()
        assert out.f1 == 0.0

    def test_signed_indicator_recovers_reference(self):
        ref = {(0, 2), (1, 3), (2, 0)}
        a = np.zeros((4, 4))
        for i, j in ref:
            a[i, j] = 1.0 if (i + j) % 2 else -1.0
        out = causal.extract_graph(a, 0.5, reference_edges=ref)
        assert out.f1 == 1.0

    def test_noisy_matrix_matches_set_comparison_oracle(self):
        rng = np.random.default_rng(12)
        ref = {(0, 4), (1, 5), (2, 6), (3, 7)}
        a = np.zeros((8, 8))
        for i, j in ref:
            a[i, j] = 1.0
        a += rng.uniform(-0.1, 0.1, size=(8, 8))
        out = causal.extract_graph(a, 0.3, reference_edges=ref)
        edges = {(i, j) for i in range(8) for j in range(8) if abs(a[i, j]) >= 0.3}
        hits = len(edges & ref)
        precision = hits / len(edges)
        recall = hits / len(ref)
        f1 = 2 * precision * recall / (precision + recall) if hits else 0.0
        assert out.precision == pytest.approx(precision)
        assert out.recall == pytest.approx(recall)
        assert out.f1 == pytest.approx(f1)

    def test_export_edge_list(self, tmp_path):
        a = np.zeros((4, 4))
        a[0, 1] = 0.9
        a[2, 3] = -1.5
        path = tmp_path / "edges.csv"
        causal.export_edge_list(a, 0.5, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# acyclicity=")
        assert "threshold=0.5" in lines[0]
        assert lines[1] == "i,j,weight"
        assert lines[2].startswith("2,3,")  # largest magnitude first
        assert lines[3].startswith("0,1,")
