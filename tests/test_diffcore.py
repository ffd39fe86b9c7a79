import ast
import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from causalcdr import diffcore as dc

import reference_ops as ref


@pytest.fixture
def no_cyclic_gc():
    """Run the test with the cyclic collector off, so only reference
    counting frees objects."""
    was_on = gc.isenabled()
    gc.disable()
    yield
    if was_on:
        gc.enable()


def taylor_expm(x, terms=30):
    # independent oracle: plain truncated series, no scaling
    n = x.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for j in range(1, terms + 1):
        term = term @ x / j
        out = out + term
    return out


def tape_grad_of(build, params, seed=0):
    """Run build(tape, nodes) -> scalar node; return (value, grads)."""
    tape = dc.Tape()
    nodes = {name: tape.param(name, value) for name, value in params.items()}
    loss = build(tape, nodes)
    tape.backward(loss)
    return float(loss.value), tape.grads()


def acyclicity_gradient(a):
    """Gradient of acyclicity(a) from the backward of its tape node."""
    tape = dc.Tape()
    tape.backward(dc.acyclicity_term(tape.param("a", a)))
    return tape.grad("a")


def fd_check(build, params, step=1e-5):
    def loss_fn(p):
        return tape_grad_of(build, p)[0]

    return max(dc.finite_diff_details(loss_fn, params, tape_grad_of(build, params)[1],
                                      step=step).values())


class TestPrimitives:
    def test_relu_gradient_zero_on_negatives(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([-0.5, 0.7]))
        loss = ref.sq_l2(ref.relu(x))
        tape.backward(loss)
        assert tape.grad("x")[0] == 0.0
        assert tape.grad("x")[1] == pytest.approx(2 * 0.7)

    def test_sigmoid_at_zero(self):
        tape = dc.Tape()
        x = tape.param("x", np.zeros(3))
        out = ref.sigmoid(x)
        assert np.allclose(out.value, 0.5)

    def test_concat_backward_splits_at_k(self):
        k = 4
        tape = dc.Tape()
        a = tape.param("a", np.arange(k, dtype=float))
        b = tape.param("b", np.ones(k))
        joined = ref.vconcat(a, b)
        assert joined.shape == (2 * k,)
        loss = ref.sq_l2(joined)
        tape.backward(loss)
        assert np.allclose(tape.grad("a"), 2 * np.arange(k, dtype=float))
        assert np.allclose(tape.grad("b"), 2 * np.ones(k))

    def test_unreachable_parameter_gets_zero_gradient(self):
        tape = dc.Tape()
        x = tape.param("x", np.ones(2))
        tape.param("unused", np.ones((3, 3)))
        tape.backward(ref.sq_l2(x))
        assert np.array_equal(tape.grad("unused"), np.zeros((3, 3)))

    def test_gradient_accumulation_is_additive(self):
        # x feeds two branches; gradient is the sum of both contributions
        tape = dc.Tape()
        x = tape.param("x", np.array([1.0, 2.0]))
        loss = dc.weighted_sum([ref.sq_l2(x), ref.l1(x)], [1.0, 1.0])
        tape.backward(loss)
        assert np.allclose(tape.grad("x"), 2 * np.array([1.0, 2.0]) + 1.0)

    def test_dimension_mismatch_reports_shapes(self):
        tape = dc.Tape()
        a = tape.param("a", np.ones((2, 3)))
        b = tape.param("b", np.ones((2, 2)))
        with pytest.raises(dc.ShapeError, match=r"\(2, 3\)"):
            ref.sub(a, b)

    def test_non_finite_identifies_operation(self):
        # without a guard, the log of an all-zero column mass is -inf
        tape = dc.Tape()
        x = tape.param("x", np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(dc.NonFiniteError, match="neg_log_col_l1"):
            ref.neg_log_col_l1(x, 1, 0.0)

    def test_duplicate_parameter_name_rejected(self):
        tape = dc.Tape()
        tape.param("w", np.ones(2))
        with pytest.raises(dc.TapeStateError):
            tape.param("w", np.ones(2))

    def test_tape_single_use(self):
        tape = dc.Tape()
        x = tape.param("x", np.ones(2))
        loss = ref.sq_l2(x)
        tape.backward(loss)
        with pytest.raises(dc.TapeStateError):
            tape.backward(loss)
        with pytest.raises(dc.TapeStateError):
            ref.relu(x)

    def test_gather_cols_accumulates_repeats(self):
        tape = dc.Tape()
        w = tape.param("w", np.arange(6, dtype=float).reshape(2, 3))
        picked = ref.gather_cols(w, [1, 1, 2])
        loss = ref.sq_l2(picked)
        tape.backward(loss)
        expected = np.zeros((2, 3))
        expected[:, 1] = 2 * 2 * w.value[:, 1]
        expected[:, 2] = 2 * w.value[:, 2]
        assert np.allclose(tape.grad("w"), expected)

    def test_bce_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(0.05, 0.95, size=8)
        t = rng.integers(0, 2, size=8).astype(float)
        tape = dc.Tape()
        pn = tape.param("p", p)
        loss = ref.bce_sum(pn, t)
        oracle = -sum(ti * math.log(pi) + (1 - ti) * math.log(1 - pi)
                      for pi, ti in zip(p, t))
        assert float(loss.value) == pytest.approx(oracle, rel=1e-12)

    def test_softmax_pair_batch_matches_single(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(2, 5))
        tape = dc.Tape()
        zn = tape.param("z", z)
        p = ref.softmax_pair(zn)
        for col in range(5):
            e = np.exp(z[:, col] - z[:, col].max())
            assert np.allclose(p.value[:, col], e / e.sum())


@pytest.mark.parametrize("seed", range(5))
def test_primitive_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(100 + seed)
    k, b = 4, 3
    params = {
        "w": rng.normal(size=(k, k)),
        "v": rng.normal(size=(k, b)),
        "x": rng.normal(size=(k, 1)),
        "m": rng.normal(size=(2, k)),
        "a": rng.normal(size=(k, k)) * 0.4,
    }

    def build(tape, n):
        h = ref.relu(ref.matmul(n["w"], n["v"]))                   # k x b
        s = ref.sigmoid(ref.matmul_t(n["w"], h))                   # k x b
        top = ref.softmax_pair(ref.matmul(n["m"], s))              # 2 x b
        probs = dc.block(top, 1, 2, 0, b)                         # 1 x b
        labels = (np.arange(b) % 2).astype(float).reshape(1, b)
        terms = [
            ref.bce_sum(probs, labels),
            ref.scale(ref.sq_l2(ref.sub(h, s)), 0.5),
            ref.scale(ref.l1(dc.block(n["a"], 0, k, 1, 3)), 0.3),
            ref.neg_log_col_l1(ref.matmul(n["a"], n["v"]), 1, 1e-8),
            dc.acyclicity_term(n["a"]),
            ref.scale(ref.l2_norm(n["w"], n["m"]), 0.01),
            ref.sq_l2(dc.mul(n["x"], ref.matmul_t(n["w"], n["x"]))),
            ref.sq_l2(ref.vconcat(n["x"], dc.block(n["x"], 0, k, 0, 1))),
            ref.sq_l2(dc.hconcat(ref.gather_cols(n["v"], [0, 2, 0]), h)),
            ref.sq_l2(ref.matmul(n["a"], n["x"])),
        ]
        return dc.weighted_sum(terms, [1.0, 1.0, 1.0, 0.1, 1.0, 1.0, 1.0, 1.0, 1.0, 0.2])

    assert fd_check(build, params) < 1e-5


@pytest.mark.parametrize("seed", range(3))
def test_gather_and_scale_gradients(seed):
    rng = np.random.default_rng(200 + seed)
    params = {"w": rng.normal(size=(3, 6))}

    def build(tape, n):
        picked = ref.gather_cols(n["w"], [5, 0, 5])
        return ref.scale(ref.sq_l2(picked), 0.7)

    assert fd_check(build, params) < 1e-6


def _square_loss(op, a, b):
    out = op(a, b)
    return out if out.value.ndim == 0 else ref.sq_l2(out)


@pytest.mark.parametrize("op", [dc.mul, ref.matmul, ref.matmul_t, dc.reconstruction],
                         ids=["mul", "matmul", "matmul_t", "reconstruction"])
def test_constant_operand_takes_no_gradient(op):
    rng = np.random.default_rng(12)
    values = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    tape = dc.Tape()
    loss = _square_loss(op, *(tape.param(f"p{i}", v) for i, v in enumerate(values)))
    tape.backward(loss)
    both = tape.grads()
    for const in (0, 1):
        tape = dc.Tape()
        nodes = [tape.constant(v) if i == const else tape.param(f"p{i}", v)
                 for i, v in enumerate(values)]
        loss = _square_loss(op, *nodes)
        tape.backward(loss)
        assert nodes[const].grad is None
        name = f"p{1 - const}"
        assert np.array_equal(tape.grad(name), both[name]), name


class TestBlock:
    def test_value_is_the_block(self):
        x = np.arange(20.0).reshape(4, 5)
        out = dc.block(dc.Tape().constant(x), 1, 3, 2, 5)
        assert np.array_equal(out.value, x[1:3, 2:5])
        assert out.op == "block"

    def test_gradient_lands_only_inside_the_block(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(4, 5))
        tape = dc.Tape()
        tape.backward(ref.sq_l2(dc.block(tape.param("x", x), 1, 3, 2, 5)))
        expected = np.zeros_like(x)
        expected[1:3, 2:5] = 2.0 * x[1:3, 2:5]
        assert np.array_equal(tape.grad("x"), expected)

    def test_overlapping_blocks_accumulate(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, 4))
        tape = dc.Tape()
        xn = tape.param("x", x)
        loss = dc.weighted_sum([ref.sq_l2(dc.block(xn, 0, 3, 0, 3)),
                                ref.l1(dc.block(xn, 1, 4, 1, 4))], [1.0, 1.0])
        tape.backward(loss)
        expected = np.zeros_like(x)
        expected[:3, :3] += 2.0 * x[:3, :3]
        expected[1:, 1:] += np.sign(x[1:, 1:])
        assert np.allclose(tape.grad("x"), expected, rtol=0, atol=1e-15)

    def test_vector_input_rejected(self):
        with pytest.raises(dc.ShapeError, match="expected a matrix"):
            dc.block(dc.Tape().constant(np.ones(4)), 0, 1, 0, 1)

    @pytest.mark.parametrize("bounds", [(0, 5, 0, 2), (-1, 2, 0, 2), (2, 1, 0, 2),
                                        (0, 2, 0, 4), (0, 2, 3, 2), (0, 2, -1, 1)])
    def test_out_of_range_bounds_rejected(self, bounds):
        with pytest.raises(dc.ShapeError, match="invalid for shape"):
            dc.block(dc.Tape().constant(np.ones((4, 3))), *bounds)


class TestPackedNorm:
    @staticmethod
    def run(l2_norm, register, values, chunk=None, monkeypatch=None):
        if chunk is not None:
            monkeypatch.setattr(dc, "NORM_CHUNK", chunk)
        tape = dc.Tape()
        nodes = register(tape, values)
        norm = l2_norm(*nodes.values())
        # a later node adds into the same gradients before the norm's backward
        tape.backward(dc.weighted_sum([norm, ref.sq_l2(nodes["a"])], [0.3, 1.0]))
        return norm.value, tape.grads()

    @staticmethod
    def values(seed):
        rng = np.random.default_rng(seed)
        return {"a": rng.normal(size=(3, 5)) * 10.0 ** rng.integers(-3, 3, size=(3, 5)),
                "b": rng.normal(size=(7,)), "c": rng.normal(size=(2, 2))}

    @pytest.mark.parametrize("chunk", [None, 4, 7], ids=["one_chunk", "chunk_4", "chunk_7"])
    def test_equals_the_per_matrix_chain_bit_for_bit(self, monkeypatch, chunk):
        values = self.values(40)
        value, grads = self.run(dc.l2_norm, lambda tape, v: tape.params(*dc.pack(v)),
                                values, chunk, monkeypatch)
        ref_value, ref_grads = self.run(
            ref.l2_norm, lambda tape, v: {n: tape.param(n, m) for n, m in v.items()}, values)
        assert value.tobytes() == ref_value.tobytes()
        for name in values:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(50 + seed)
        values = {"a": rng.normal(size=(3, 5)), "b": rng.normal(size=(7,)),
                  "c": rng.normal(size=(2, 2))}

        def run(v):
            tape = dc.Tape()
            norm = dc.l2_norm(*tape.params(*dc.pack(v)).values())
            tape.backward(norm)
            return float(norm.value), tape.grads()

        errors = dc.finite_diff_details(lambda v: run(v)[0], values, run(values)[1])
        assert max(errors.values()) < 1e-4

    def test_inputs_must_be_one_whole_packed_vector(self):
        tape = dc.Tape()
        nodes = tape.params(*dc.pack(self.values(60)))
        other = tape.param("d", np.ones(3))
        for xs in ([nodes["a"], nodes["b"]], [*nodes.values(), other],
                   [ref.relu(nodes["a"])]):
            with pytest.raises(dc.ShapeError, match="one packed vector"):
                dc.l2_norm(*xs)

    @pytest.mark.parametrize("grad", [True, False], ids=["recording", "value_only"])
    def test_permuted_or_repeated_inputs_are_rejected(self, grad):
        # equal sizes, so each list below covers the vector's length
        rng = np.random.default_rng(61)
        tape = dc.Tape(grad=grad)
        nodes = tape.params(*dc.pack({"p": rng.normal(size=(2, 3)),
                                      "q": rng.normal(size=(3, 2))}))
        p, q = nodes["p"], nodes["q"]
        for xs in ([q, p], [p, p], [q, q]):
            with pytest.raises(dc.ShapeError, match="in order"):
                dc.l2_norm(*xs)
        assert dc.l2_norm(p, q).value == pytest.approx(
            np.sqrt(np.sum(p.value ** 2) + np.sum(q.value ** 2)))


class TestHconcatRows:
    def test_concatenates_the_rows_and_routes_their_gradient(self):
        rng = np.random.default_rng(70)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        tape = dc.Tape()
        an, bn = tape.param("a", a), tape.param("b", b)
        out = dc.hconcat(an, bn, 3)
        assert np.array_equal(out.value, np.hstack([a[:3], b[:3]]))
        tape.backward(ref.sq_l2(out))
        for name, x in (("a", a), ("b", b)):
            expected = np.zeros_like(x)
            expected[:3] = 2.0 * x[:3]
            assert np.array_equal(tape.grad(name), expected), name

    @pytest.mark.parametrize("rows", [-1, 6])
    def test_invalid_rows_rejected(self, rows):
        tape = dc.Tape()
        with pytest.raises(dc.ShapeError, match="invalid for shape"):
            dc.hconcat(tape.constant(np.ones((5, 2))), tape.constant(np.ones((5, 1))), rows)


class TestWeightedSum:
    def test_equals_fold_of_add_and_scale_bit_for_bit(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(5, 3, 2)) * 10.0 ** rng.integers(-8, 8, size=(5, 1, 1))
        weights = [1.0, 0.3, 500.0, 1e-3, 0.1]

        def run(fused):
            tape = dc.Tape()
            xs = [tape.param(f"x{i}", v) for i, v in enumerate(values)]
            if fused:
                out = dc.weighted_sum(xs, weights)
            else:
                out = xs[0]
                for x, w in zip(xs[1:], weights[1:]):
                    out = dc.weighted_sum([out, ref.scale(x, w)], [1.0, 1.0])
            loss = ref.sq_l2(out)
            tape.backward(loss)
            return out.value, tape.grads()

        value, grads = run(fused=True)
        ref_value, ref_grads = run(fused=False)
        assert np.array_equal(value, ref_value)
        for name in ref_grads:
            assert np.array_equal(grads[name], ref_grads[name])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(400 + seed)
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}

        def build(tape, n):
            return dc.weighted_sum([ref.sq_l2(n["a"]), ref.l1(dc.mul(n["a"], n["b"])),
                                    ref.sq_l2(n["b"])], [1.0, -0.7, 2.5])

        assert fd_check(build, params) < 1e-4

    def test_each_input_gets_its_weight(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([1.0, -2.0]))
        y = tape.param("y", np.array([3.0, 4.0]))
        out = dc.weighted_sum([x, y], [2.0, -0.5])
        assert np.array_equal(out.value, np.array([0.5, -6.0]))
        tape.backward(ref.l1(out))
        assert np.array_equal(tape.grad("x"), np.array([2.0, -2.0]))
        assert np.array_equal(tape.grad("y"), np.array([-0.5, 0.5]))

    def test_mismatched_inputs_rejected(self):
        tape = dc.Tape()
        x = tape.param("x", np.ones(2))
        with pytest.raises(dc.ShapeError):
            dc.weighted_sum([x, x], [1.0])
        with pytest.raises(dc.ShapeError):
            dc.weighted_sum([x, tape.param("y", np.ones(3))], [1.0, 1.0])
        with pytest.raises(dc.ShapeError):
            dc.weighted_sum([], [])


class TestNegLogColL1:
    def test_value_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.normal(size=(6, 5))
        tape = dc.Tape()
        out = ref.neg_log_col_l1(tape.param("x", x), 2, 1e-8)
        oracle = -sum(math.log(sum(abs(x[r, j]) for r in range(6)) + 1e-8)
                      for j in range(2, 5))
        assert float(out.value) == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(500 + seed)
        x = rng.normal(size=(6, 6))
        x[:, 4] = 0.0              # an all-zero column: only eps keeps its log finite
        x[[0, 3], 5] = 0.0         # exact zeros inside a live column, sign() is 0
        x[2, 3] = 0.0

        def build(tape, n):
            return ref.neg_log_col_l1(n["x"], 3, 1e-8)

        assert fd_check(build, {"x": x}) < 1e-4

    def test_gradient_stays_in_the_penalised_columns(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(4, 6))
        x[1, 4] = 0.0
        tape = dc.Tape()
        tape.backward(ref.neg_log_col_l1(tape.param("x", x), 3, 1e-8))
        grad = tape.grad("x")
        assert np.array_equal(grad[:, :3], np.zeros((4, 3)))
        mass = np.abs(x[:, 3:]).sum(axis=0) + 1e-8
        assert np.allclose(grad[:, 3:], -np.sign(x[:, 3:]) / mass, rtol=1e-14)
        assert grad[1, 4] == 0.0

    def test_bad_start_column_rejected(self):
        tape = dc.Tape()
        x = tape.param("x", np.ones((2, 3)))
        with pytest.raises(dc.ShapeError):
            ref.neg_log_col_l1(x, 3, 1e-8)
        with pytest.raises(dc.ShapeError):
            ref.neg_log_col_l1(tape.param("v", np.ones(3)), 0, 1e-8)


class TestTapeLifetime:
    def test_backward_frees_intermediate_nodes_without_gc(self):
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            tape = dc.Tape()
            x = tape.param("x", np.array([[1.0, -2.0], [0.5, 3.0]]))
            hidden = ref.relu(ref.matmul(x, x))
            # Node has __slots__ and no weakref slot; its value array lives
            # exactly as long as the node does
            probe = weakref.ref(hidden.value)
            loss = ref.sq_l2(hidden)
            del hidden
            assert probe() is not None      # the tape's records hold the node
            tape.backward(loss)
            assert probe() is None          # freed by reference counting alone
            relu_xx = np.maximum(x.value @ x.value, 0.0)
            g = 2.0 * relu_xx
            expected = g @ x.value.T + x.value.T @ g
            assert np.allclose(tape.grads()["x"], expected)
        finally:
            if gc_was_on:
                gc.enable()


    def test_spent_tape_frees_gradients_without_gc(self, no_cyclic_gc):
        tape = dc.Tape()
        x = tape.param("x", np.array([[1.0, -2.0], [0.5, 3.0]]))
        loss = ref.sq_l2(ref.matmul(x, x))
        tape.backward(loss)
        probe = weakref.ref(tape.grads()["x"])
        del tape, x, loss
        assert probe() is None

    def test_value_tape_frees_its_nodes_without_gc(self, no_cyclic_gc):
        tape = dc.Tape(grad=False)
        x = tape.param("x", np.array([[1.0, -2.0], [0.5, 3.0]]))
        hidden = ref.relu(ref.matmul(x, x))
        param_probe = weakref.ref(x.value)
        hidden_probe = weakref.ref(hidden.value)
        loss = ref.sq_l2(hidden)
        del hidden
        assert hidden_probe() is None   # nothing recorded holds the node
        del tape, x, loss
        assert param_probe() is None


class TestPackedParams:
    @staticmethod
    def packed():
        rng = np.random.default_rng(31)
        return dc.pack({"w": rng.normal(size=(3, 4)), "b": rng.normal(size=(2, 1)),
                        "a": rng.normal(size=(4, 4))})

    def test_pack_copies_into_consecutive_views(self):
        source = {"w": np.arange(6.0).reshape(2, 3), "v": np.array([[7.0], [8.0]])}
        flat, views = dc.pack(source)
        assert np.array_equal(flat, [0, 1, 2, 3, 4, 5, 7, 8])
        assert list(views) == ["w", "v"]
        for name, view in views.items():
            assert view.base is flat and np.array_equal(view, source[name])
        source["w"][0, 0] = 9.0
        assert flat[0] == 0.0

    def test_grads_are_views_of_the_flat_buffer(self):
        flat, views = self.packed()
        # the tape zeroes the buffer
        buffer, buffer_views = dc.pack({name: np.full(v.shape, np.nan)
                                        for name, v in views.items()})
        tape = dc.Tape(grad_buffer=(buffer, buffer_views))
        nodes = tape.params(flat, views)
        loss = dc.weighted_sum([ref.sq_l2(ref.matmul(nodes["w"], nodes["a"])),
                                ref.l1(nodes["b"])], [1.0, 0.5])
        tape.backward(loss)
        grads = tape.grads()
        start = 0
        for name, view in views.items():
            stop = start + view.size
            assert grads[name].base is buffer
            assert np.array_equal(grads[name], buffer[start:stop].reshape(view.shape))
            start = stop
        assert np.array_equal(grads["b"], 0.5 * np.sign(views["b"]))

    def test_packed_grads_equal_separate_params(self):
        flat, views = self.packed()

        def run(register, l2_norm):
            tape = dc.Tape()
            nodes = register(tape)
            loss = dc.weighted_sum([ref.sq_l2(ref.matmul(nodes["w"], nodes["a"])),
                                    l2_norm(*nodes.values())], [1.0, 0.1])
            tape.backward(loss)
            return tape.grads()

        # the packed norm node against the per-matrix chain on separate params
        packed = run(lambda tape: tape.params(flat, views), dc.l2_norm)
        separate = run(lambda tape: {name: tape.param(name, v.copy())
                                     for name, v in views.items()}, ref.l2_norm)
        for name in views:
            assert np.array_equal(packed[name], separate[name]), name

    @pytest.mark.parametrize("grad", [True, False], ids=["recording", "value_only"])
    def test_non_finite_matrix_is_named(self, grad):
        flat, views = self.packed()
        views["b"][1, 0] = np.nan
        views["a"][0, 0] = np.inf
        with pytest.raises(dc.NonFiniteError,
                           match="param 'b' produced a non-finite value"):
            dc.Tape(grad=grad).params(flat, views)

    def test_a_rebound_matrix_is_rejected(self):
        flat, views = self.packed()
        views["a"] = views["a"].copy()
        with pytest.raises(dc.ShapeError, match="param 'a' is not a view"):
            dc.Tape().params(flat, views)

    def test_buffer_of_another_shape_is_rejected(self):
        flat, views = self.packed()
        with pytest.raises(dc.ShapeError, match="grad_buffer"):
            dc.Tape(grad_buffer=dc.pack({**views, "c": np.zeros(1)})).params(flat, views)

    def test_a_views_pair_is_used_as_given(self):
        flat, views = self.packed()
        buffer, buffer_views = dc.pack({name: np.full(v.shape, np.nan)
                                        for name, v in views.items()})
        tape = dc.Tape(grad_buffer=(buffer, buffer_views))
        nodes = tape.params(flat, views)
        assert all(nodes[name].grad is buffer_views[name] for name in views)
        tape.backward(dc.l2_norm(*nodes.values()))
        assert np.array_equal(buffer, flat / np.sqrt(np.sum(flat * flat)))

    def test_a_views_pair_of_other_shapes_is_rejected(self):
        flat, views = self.packed()
        other = dict(views)
        other["b"] = other["b"].reshape(1, 2)
        with pytest.raises(dc.ShapeError, match="grad_buffer views"):
            dc.Tape(grad_buffer=dc.pack(other)).params(flat, views)
        buffer, buffer_views = dc.pack(views)
        buffer_views["a"] = buffer_views["a"].copy()   # not a view of the buffer
        with pytest.raises(dc.ShapeError, match="grad_buffer views"):
            dc.Tape(grad_buffer=(buffer, buffer_views)).params(flat, views)

    def test_backward_zeroes_the_buffer_a_forward_node_used(self):
        flat, views = self.packed()
        buffer, buffer_views = dc.pack(views)
        tape = dc.Tape(grad_buffer=(buffer, buffer_views))
        nodes = tape.params(flat, views)
        norm = dc.l2_norm(*nodes.values())
        assert np.array_equal(buffer, flat * flat)   # the norm's squares
        tape.backward(dc.weighted_sum([norm, ref.l1(nodes["b"])], [0.0, 1.0]))
        assert np.array_equal(tape.grad("w"), np.zeros((3, 4)))
        assert np.array_equal(tape.grad("b"), np.sign(views["b"]))

    def test_duplicate_names_are_rejected(self):
        flat, views = self.packed()
        tape = dc.Tape()
        tape.param("a", np.ones(2))
        with pytest.raises(dc.TapeStateError, match="duplicate parameter name 'a'"):
            tape.params(flat, views)


class TestNonFiniteChecks:
    @pytest.mark.parametrize("value, factor", [
        (0.0, np.inf),                       # 0-d NaN
        (1e308, 10.0),                       # 0-d inf
        (np.full((2, 2), 1e308), 10.0),      # inf in an array
        (np.array([[1.0, np.nan]]), 1.0),    # NaN in an array (via a constant)
    ], ids=["scalar_nan", "scalar_inf", "array_inf", "array_nan"])
    def test_each_is_named_by_its_op(self, value, factor):
        tape = dc.Tape()
        if np.all(np.isfinite(value)):
            x = tape.param("x", value)
            with np.errstate(invalid="ignore", over="ignore"):
                with pytest.raises(dc.NonFiniteError, match="scale produced"):
                    ref.scale(x, factor)
        else:
            with pytest.raises(dc.NonFiniteError, match="constant produced"):
                tape.constant(value)

    def test_finite_entries_whose_sum_overflows_pass(self):
        tape = dc.Tape()
        with np.errstate(over="ignore"):
            x = tape.constant(np.full((2, 2), 1e308))
            assert np.array_equal(ref.scale(x, 1.0).value, np.full((2, 2), 1e308))
            with pytest.raises(dc.NonFiniteError, match="scale produced"):
                ref.scale(x, -10.0)

    def test_first_gradient_write_turns_negative_zero_positive(self):
        # the first gradient a node receives is zeros + g, so -0.0 reads +0.0
        tape = dc.Tape()
        p = tape.param("p", np.array([[-1.0, 2.0]]))
        h = ref.scale(p, 1.0)
        loss = ref.scale(ref.sq_l2(ref.relu(h)), -1.0)
        tape.backward(loss)
        assert h.grad[0, 0] == 0.0 and not np.signbit(h.grad[0, 0])
        assert h.grad[0, 1] == -4.0


class TestValueTape:
    @staticmethod
    def forward(tape):
        """Values of most primitives, chained the way the model chains them."""
        rng = np.random.default_rng(23)
        w = tape.param("w", rng.normal(size=(4, 4)))
        v = tape.param("v", rng.normal(size=(4, 6)))
        a = tape.param("a", rng.normal(size=(4, 4)) * 0.3)
        h = ref.relu(ref.matmul(w, ref.gather_cols(v, [0, 5, 5, 2])))
        s = ref.sigmoid(ref.matmul_t(a, ref.grad_reverse(h, 1.0)))
        p = dc.block(ref.softmax_pair(dc.block(s, 0, 2, 0, 4)), 1, 2, 0, 4)
        both = dc.hconcat(ref.vconcat(h, s), ref.vconcat(dc.mul(ref.sub(h, s), h), h))
        terms = [ref.bce_sum(p, np.ones(p.shape)), ref.sq_l2(both), ref.l1(both),
                 ref.l2_norm(w, v), dc.acyclicity_term(a),
                 ref.neg_log_col_l1(both, 2, 1e-8), ref.scale(ref.l1(s), 0.5)]
        return [h, s, p, both] + terms + [dc.weighted_sum(terms, range(1, 8))]

    def test_values_equal_a_recording_tape(self):
        recorded = self.forward(dc.Tape())
        value_only = self.forward(dc.Tape(grad=False))
        for r, v in zip(recorded, value_only, strict=True):
            assert np.array_equal(r.value, v.value), r.op

    def test_has_no_backward_or_gradients(self):
        tape = dc.Tape(grad=False)
        x = tape.param("x", np.ones(2))
        loss = ref.sq_l2(x)
        with pytest.raises(dc.TapeStateError):
            tape.backward(loss)
        with pytest.raises(dc.TapeStateError):
            tape.grads()
        with pytest.raises(dc.TapeStateError):
            tape.param("x", np.ones(2))

    def test_non_finite_values_still_raise(self):
        tape = dc.Tape(grad=False)
        x = tape.param("x", np.array([[1.0, 0.0], [2.0, 0.0]]))
        with pytest.raises(dc.NonFiniteError, match="neg_log_col_l1"):
            ref.neg_log_col_l1(x, 1, 0.0)
        with pytest.raises(dc.NonFiniteError, match="param"):
            tape.param("y", np.array([np.nan]))


class TestGradReverse:
    def test_forward_is_identity(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([1.0, -2.0]))
        out = ref.grad_reverse(x, 1.0)
        assert np.array_equal(out.value, np.array([1.0, -2.0]))

    def test_double_forward_is_identity(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([0.3, 0.4, -1.0]))
        out = ref.grad_reverse(ref.grad_reverse(x, 1.0), 1.0)
        assert np.array_equal(out.value, x.value)

    def test_backward_negates_gradient(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([1.0, 1.0]))
        # downstream gradient of sum-like loss is 0.3 per entry
        loss = ref.scale(ref.l1(ref.grad_reverse(x, 1.0)), 0.3)
        tape.backward(loss)
        assert np.allclose(tape.grad("x"), [-0.3, -0.3])

    def test_backward_scales_by_factor(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([2.0]))
        loss = ref.l1(ref.grad_reverse(x, 0.5))
        tape.backward(loss)
        assert np.allclose(tape.grad("x"), [-0.5])

    def test_scale_zero_blocks_gradient(self):
        tape = dc.Tape()
        x = tape.param("x", np.array([2.0]))
        loss = ref.sq_l2(ref.grad_reverse(x, 0.0))
        tape.backward(loss)
        assert np.array_equal(tape.grad("x"), np.zeros(1))

    def test_negative_scale_rejected(self):
        tape = dc.Tape()
        x = tape.param("x", np.ones(1))
        with pytest.raises(ValueError):
            ref.grad_reverse(x, -1.0)

    def test_tape_gradient_is_minus_fd_of_unreversed_path(self):
        # two-parameter hand computation: loss = sigmoid(w * grl(e * x))
        rng = np.random.default_rng(11)
        params = {"e": rng.normal(size=(2, 2)), "w": rng.normal(size=(1, 2))}
        x = rng.normal(size=(2, 1))

        def with_grl(p):
            tape = dc.Tape()
            e = tape.param("e", p["e"])
            w = tape.param("w", p["w"])
            hidden = ref.grad_reverse(ref.matmul(e, tape.constant(x)), 1.0)
            out = ref.sigmoid(ref.matmul(w, hidden))
            loss = ref.bce_sum(out, np.array([[1.0]]))
            tape.backward(loss)
            return float(loss.value), tape.grads()

        def without_grl(p):
            tape = dc.Tape()
            e = tape.param("e", p["e"])
            w = tape.param("w", p["w"])
            hidden = ref.matmul(e, tape.constant(x))
            out = ref.sigmoid(ref.matmul(w, hidden))
            loss = ref.bce_sum(out, np.array([[1.0]]))
            tape.backward(loss)
            return float(loss.value), tape.grads()

        _, grads_grl = with_grl(params)

        # encoder block: tape gradient equals -1 x finite difference of the
        # non-reversed composition
        def neg_loss(p):
            return -without_grl({"e": p["e"], "w": params["w"]})[0]

        _, grads_plain = without_grl(params)
        err = max(dc.finite_diff_details(neg_loss, {"e": params["e"]},
                                         {"e": -grads_plain["e"]}, step=1e-6).values())
        assert err < 1e-6
        assert np.allclose(grads_grl["e"], -grads_plain["e"])
        # discriminator block unaffected by the reversal node
        assert np.allclose(grads_grl["w"], grads_plain["w"])


class TestAcyclicity:
    def test_zero_matrix(self):
        assert dc.acyclicity(np.zeros((4, 4))) == pytest.approx(0.0, abs=1e-12)

    def test_strictly_upper_triangular_is_acyclic(self):
        rng = np.random.default_rng(5)
        a = np.triu(rng.normal(size=(4, 4)) * 3, k=1)
        assert abs(dc.acyclicity(a)) < 1e-10

    def test_two_cycle_value(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = 2 * math.cosh(1.0) - 2
        assert dc.acyclicity(a) == pytest.approx(expected, abs=1e-10)
        # cross-check against a 30-term Taylor series oracle
        oracle = float(np.trace(taylor_expm(a * a))) - 2
        assert dc.acyclicity(a) == pytest.approx(oracle, abs=1e-12)

    def test_two_cycle_with_small_weights_positive(self):
        a = np.array([[0.0, 0.1], [0.1, 0.0]])
        assert dc.acyclicity(a) > 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6)) * 0.5
        perm = rng.permutation(6)
        p = np.eye(6)[perm]
        assert dc.acyclicity(p @ a @ p.T) == pytest.approx(dc.acyclicity(a), rel=1e-12)

    def test_matrix_exp_against_taylor_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = rng.normal(size=(5, 5))
            assert np.allclose(dc.matrix_exp(x), taylor_expm(x, terms=60), atol=1e-10)

    def test_gradient_zero_matrix(self):
        assert np.array_equal(acyclicity_gradient(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_gradient_two_cycle_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        grad = acyclicity_gradient(a)
        assert grad[0, 1] == pytest.approx(2 * math.sinh(1.0), abs=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        a = rng.normal(size=(4, 4)) * 0.6
        grad = acyclicity_gradient(a)
        step = 1e-5
        for i in range(4):
            for j in range(4):
                ap = a.copy()
                ap[i, j] += step
                am = a.copy()
                am[i, j] -= step
                fd = (dc.acyclicity(ap) - dc.acyclicity(am)) / (2 * step)
                denom = max(abs(grad[i, j]), abs(fd))
                if denom < 1e-8:
                    assert abs(grad[i, j] - fd) < 1e-8
                else:
                    assert abs(grad[i, j] - fd) / denom < 1e-5

    def test_non_square_rejected(self):
        with pytest.raises(dc.ShapeError):
            dc.acyclicity(np.ones((2, 3)))

    def test_overflowing_square_is_a_non_finite_error(self):
        a = np.array([[0.0, 1e200], [1e-3, 0.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(dc.NonFiniteError, match="^acyclicity produced"):
                dc.acyclicity(a)
            with pytest.raises(dc.NonFiniteError, match="^acyclicity produced"):
                dc.acyclicity_term(dc.Tape().param("a", a))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_matrix_exp_rejects_a_non_finite_matrix(self, bad):
        with pytest.raises(dc.NonFiniteError, match="matrix_exp"):
            dc.matrix_exp(np.array([[0.0, bad], [0.0, 0.0]]))


class TestFiniteDiffCheck:
    def test_quadratic_loss(self):
        def loss_fn(p):
            x = p["x"]
            return float(np.sum(x * x))

        x = np.array([1.0, 2.0])
        err = max(dc.finite_diff_details(loss_fn, {"x": x}, {"x": 2 * x},
                                         step=1e-6).values())
        assert err < 1e-7

    def test_wrong_gradient_detected(self):
        def loss_fn(p):
            x = p["x"]
            return float(np.sum(x * x))

        x = np.array([1.0, 2.0])
        err = max(dc.finite_diff_details(loss_fn, {"x": x}, {"x": 3 * x},
                                         step=1e-6).values())
        assert err > 0.2

    def test_nondeterministic_rejected(self):
        state = {"calls": 0}

        def loss_fn(p):
            state["calls"] += 1
            return float(state["calls"])

        with pytest.raises(ValueError, match="deterministic"):
            dc.finite_diff_details(loss_fn, {"x": np.zeros(1)}, {"x": np.zeros(1)})

    def test_step_range_enforced(self):
        def loss_fn(p):
            return 0.0

        with pytest.raises(ValueError):
            dc.finite_diff_details(loss_fn, {"x": np.zeros(1)}, {"x": np.zeros(1)}, step=0.5)


def _package_references(trees, name, skip):
    """Nodes of the package's syntax trees that reference diffcore's name,
    outside the nodes in skip."""
    found = []
    for module, tree in trees.items():
        aliases = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                   for alias in node.names if alias.name == "diffcore"}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and node.id == name and module == "diffcore":
                found.append(node)
            elif (isinstance(node, ast.Attribute) and node.attr == name
                  and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append(node)
            elif (isinstance(node, ast.ImportFrom) and node.module == "diffcore"
                  and any(alias.name == name for alias in node.names)):
                found.append(node)
    return found


def test_every_public_function_has_a_caller_in_the_package():
    # an engine primitive that only tests call belongs in tests/reference_ops.py
    package = Path(dc.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    public = [node for node in trees["diffcore"].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert {"encode", "matrix_exp"} <= {node.name for node in public}
    unused = [node.name for node in public
              if not _package_references(trees, node.name,
                                         {id(n) for n in ast.walk(node)})]
    assert unused == []
