"""Reverse-mode gradient engine over dense float64 matrices.

Supplies exactly the primitives the joint recommendation loss needs:
matrix products, elementwise arithmetic, concatenation and
contiguous blocks, ReLU, sigmoid, two-way softmax, binary cross-entropy,
norms, a weighted sum, the summed negative log of column L1 masses, a
gradient-reversal node, and the trace-exponential acyclicity scalar;
plus four fused nodes, each bit for bit a fixed chain of those: the
causal reconstruction, the causal penalties' weighted fold, the domain
discriminator and the gated softmax head. A tape records operations in
execution order; the backward pass replays them in reverse and
accumulates exact analytic gradients. Parameters are packed into one
vector (see pack) and registered in one call; their gradients are views
of one preallocated flat buffer.

The engine holds no global state and draws no randomness; a Tape is
single-use and confined to one thread.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested primitive."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf; the message names the operation."""


class TapeStateError(RuntimeError):
    """The tape was reused after backward() or a duplicate name was registered."""


PROB_CLAMP = 1e-7          # bound for probabilities before logarithms
NORM_GUARD = 1e-12         # gradient guard for the joint L2 norm at zero
REL_ERR_ABS_SWITCH = 1e-8  # below this magnitude, compare absolutely


def _as_array(value) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    return out


def _check_finite(op: str, value: np.ndarray) -> None:
    """Raise NonFiniteError naming op iff value holds a NaN or an infinity.

    A finite sum proves every entry finite, so only a non-finite sum (a
    non-finite entry, or finite entries whose sum overflows) pays for the
    entry-by-entry scan.
    """
    if value.ndim == 0:
        finite = math.isfinite(value)
    else:
        finite = (math.isfinite(np.add.reduce(value, axis=None))
                  or np.isfinite(value).all())
    if not finite:
        raise NonFiniteError(f"{op} produced a non-finite value")


def _views(flat: np.ndarray, shapes: Mapping[str, tuple]) -> dict[str, np.ndarray]:
    """Consecutive reshaped views of flat, one per (name, shape), in order."""
    views = {}
    start = 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    if start != flat.size:
        raise ShapeError(f"shapes hold {start} entries, the vector {flat.size}")
    return views


def pack(matrices: Mapping[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Copy matrices into one new contiguous float64 vector, in mapping
    order; returns (vector, {name: reshaped view of the vector})."""
    arrays = {name: _as_array(m) for name, m in matrices.items()}
    flat = np.empty(sum(a.size for a in arrays.values()))
    views = _views(flat, {name: a.shape for name, a in arrays.items()})
    for name, a in arrays.items():
        views[name][...] = a
    return flat, views


class Node:
    """A value produced on a tape. Leaf nodes are parameters or constants."""

    __slots__ = ("value", "grad", "tape", "op")

    def __init__(self, tape: "Tape", value: np.ndarray, op: str):
        self.tape = tape
        self.value = value
        self.grad = None  # allocated lazily during backward
        self.op = op

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Ordered record of primitive operations plus a parameter registry.

    Single-use: once backward() has run, recording further operations or
    running backward again raises. Registered parameter values are treated
    as read-only snapshots; their gradients accumulate into views of one
    flat buffer per registered vector (see params).

    Tape(grad=False) is a value-only tape for forward passes that need no
    gradient (scoring, probes): it keeps no record and no parameter node,
    so its nodes are freed as soon as the caller drops them, and its
    backward() raises.
    """

    def __init__(self, grad: bool = True, grad_buffer: np.ndarray | None = None):
        self._records: list[tuple[Node, Callable[[np.ndarray], None]]] | None = (
            [] if grad else None)
        self._params: dict[str, Node | None] = {}
        self._grads: dict[str, np.ndarray] | None = None
        self._done = False
        self._grad_buffer = grad_buffer

    def param(self, name: str, value) -> Node:
        """Register a packed copy of one matrix (see params)."""
        return self.params(*pack({name: value}))[name]

    def params(self, flat: np.ndarray, views: Mapping[str, np.ndarray]) -> dict[str, Node]:
        """Register every matrix of one packed vector, as pack returns it.

        One finite scan covers the vector; its error names the first
        non-finite matrix. On a gradient tape the parameters' gradients
        accumulate into matching views of one flat buffer: the tape's
        grad_buffer, zeroed here, or a new one. The first call takes the
        grad_buffer; a later call gets a new one.
        """
        if self._done:
            raise TapeStateError("tape already consumed by backward()")
        for name, view in views.items():
            if name in self._params:
                raise TapeStateError(f"duplicate parameter name {name!r}")
            if view.base is not flat:
                raise ShapeError(f"param {name!r} is not a view of the packed vector")
        if not np.isfinite(flat).all():
            bad = next(name for name, view in views.items()
                       if not np.isfinite(view).all())
            raise NonFiniteError(f"param {bad!r} produced a non-finite value")
        nodes = {name: Node(self, view, "param") for name, view in views.items()}
        if self._records is None:
            self._params.update(dict.fromkeys(nodes))
            return nodes
        grad, self._grad_buffer = self._grad_buffer, None
        if grad is None:
            grad = np.zeros_like(flat)
        elif grad.shape != flat.shape:
            raise ShapeError(f"grad_buffer shape {grad.shape} != packed shape {flat.shape}")
        else:
            grad.fill(0.0)
        grads = _views(grad, {name: view.shape for name, view in views.items()})
        for name, node in nodes.items():
            node.grad = grads[name]
        self._params.update(nodes)
        return nodes

    def constant(self, value) -> Node:
        """A leaf that takes no gradient: the products and the
        reconstruction skip the gradient work for a constant operand, so
        its grad stays None."""
        node = Node(self, _as_array(value), "const")
        _check_finite("constant", node.value)
        return node

    def record(self, op: str, value: np.ndarray,
               backward: Callable[[np.ndarray], None]) -> Node:
        if self._done:
            raise TapeStateError("tape already consumed by backward()")
        _check_finite(op, value)
        node = Node(self, value, op)
        if self._records is not None:
            self._records.append((node, backward))
        return node

    def backward(self, loss: Node) -> None:
        if self._records is None:
            raise TapeStateError("a value-only tape has no backward()")
        if self._done:
            raise TapeStateError("backward() already ran on this tape")
        if loss.tape is not self:
            raise TapeStateError("loss node belongs to a different tape")
        if loss.value.ndim != 0:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        self._done = True
        loss.grad = np.ones(())
        for node, backward in reversed(self._records):
            if node.grad is not None:
                backward(node.grad)
        # Every node holds the tape, so the records and the parameter nodes
        # form cycles with it; keeping only the gradients frees the nodes
        # and their buffers now instead of at the next cyclic collection.
        self._records = []
        self._grads = {name: node.grad for name, node in self._params.items()}
        self._params = {}

    def grad(self, name: str) -> np.ndarray:
        return self.grads()[name]

    def grads(self) -> dict[str, np.ndarray]:
        if self._grads is None:
            raise TapeStateError("gradients exist only after backward()")
        return dict(self._grads)


def _accum(node: Node, g: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.add(g, 0.0)  # the bits of zeros + g, signed zeros included
    else:
        node.grad += g


def _tape_of(*nodes: Node) -> Tape:
    tape = nodes[0].tape
    for n in nodes[1:]:
        if n.tape is not tape:
            raise TapeStateError("operands were created on different tapes")
    return tape


def _require_same_shape(op: str, a: Node, b: Node) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# elementwise arithmetic

def sub(a: Node, b: Node) -> Node:
    _require_same_shape("sub", a, b)
    tape = _tape_of(a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return tape.record("sub", a.value - b.value, backward)


def mul(a: Node, b: Node) -> Node:
    _require_same_shape("mul", a, b)
    tape = _tape_of(a, b)

    def backward(g):
        if a.op != "const":
            _accum(a, g * b.value)
        if b.op != "const":
            _accum(b, g * a.value)

    return tape.record("mul", a.value * b.value, backward)


def scale(x: Node, c: float) -> Node:
    c = float(c)

    def backward(g):
        _accum(x, g * c)

    return x.tape.record("scale", x.value * c, backward)


def weighted_sum(nodes: Sequence[Node], weights: Sequence[float]) -> Node:
    """sum_i weights[i] * nodes[i] as one node, folded left to right.

    The value is bit-for-bit the fold add(...add(w0 x0, w1 x1)..., wn xn);
    backward hands each input g * w_i.
    """
    if len(nodes) != len(weights) or not nodes:
        raise ShapeError(f"weighted_sum: {len(nodes)} nodes and {len(weights)} weights")
    for n in nodes[1:]:
        _require_same_shape("weighted_sum", nodes[0], n)
    tape = _tape_of(*nodes)
    weights = [float(w) for w in weights]
    value = _fold([n.value for n in nodes], weights)

    def backward(g):
        for n, w in zip(nodes, weights):
            _accum(n, g * w)

    return tape.record("weighted_sum", value, backward)


def _fold(values: Sequence, weights: Sequence[float]):
    """values[0] * weights[0] + ... + values[n] * weights[n], left to right."""
    value = values[0] * weights[0]
    for v, w in zip(values[1:], weights[1:]):
        value = value + v * w
    return value


# ---------------------------------------------------------------------------
# products

def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} incompatible")
    tape = _tape_of(a, b)

    def backward(g):
        if a.op != "const":
            _accum(a, g @ b.value.T)
        if b.op != "const":
            _accum(b, a.value.T @ g)

    return tape.record("matmul", a.value @ b.value, backward)


def matmul_t(a: Node, b: Node) -> Node:
    """a.T @ b without materialising a transpose node."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"matmul_t: shapes {a.shape} and {b.shape} incompatible")
    tape = _tape_of(a, b)

    def backward(g):
        if a.op != "const":
            _accum(a, b.value @ g.T)
        if b.op != "const":
            _accum(b, a.value @ g)

    return tape.record("matmul_t", a.value.T @ b.value, backward)


def gather_cols(w: Node, indices) -> Node:
    """Select columns of w; the one-hot product of an embedding lookup.

    Repeated indices are allowed; their gradients accumulate.
    """
    idx = np.asarray(indices, dtype=np.intp)
    if w.value.ndim != 2:
        raise ShapeError(f"gather_cols: expected a matrix, got shape {w.shape}")
    if idx.ndim != 1:
        raise ShapeError("gather_cols: indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= w.shape[1]):
        raise ShapeError(f"gather_cols: index out of range for {w.shape[1]} columns")

    def backward(g):
        if w.grad is None:
            w.grad = np.zeros_like(w.value)
        np.add.at(w.grad, (slice(None), idx), g)

    return w.tape.record("gather_cols", w.value[:, idx], backward)


# ---------------------------------------------------------------------------
# structure: concatenation and contiguous blocks

def vconcat(a: Node, b: Node) -> Node:
    """Concatenate along axis 0: vectors end to end, matrices row-stacked."""
    if a.value.ndim != b.value.ndim:
        raise ShapeError(f"vconcat: ranks {a.value.ndim} and {b.value.ndim} differ")
    if a.value.ndim == 2 and a.shape[1] != b.shape[1]:
        raise ShapeError(f"vconcat: column counts {a.shape} vs {b.shape} differ")
    tape = _tape_of(a, b)
    split = a.shape[0]

    def backward(g):
        _accum(a, g[:split])
        _accum(b, g[split:])

    return tape.record("vconcat", np.concatenate([a.value, b.value], axis=0), backward)


def hconcat(a: Node, b: Node) -> Node:
    """Concatenate matrices along axis 1 (column-stacked batches)."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"hconcat: shapes {a.shape} and {b.shape} incompatible")
    tape = _tape_of(a, b)
    split = a.shape[1]

    def backward(g):
        _accum(a, g[:, :split])
        _accum(b, g[:, split:])

    return tape.record("hconcat", np.concatenate([a.value, b.value], axis=1), backward)


def block(x: Node, r0: int, r1: int, c0: int, c1: int) -> Node:
    """Contiguous block x[r0:r1, c0:c1] of a matrix."""
    if x.value.ndim != 2:
        raise ShapeError(f"block: expected a matrix, got shape {x.shape}")
    if not (0 <= r0 <= r1 <= x.shape[0] and 0 <= c0 <= c1 <= x.shape[1]):
        raise ShapeError(f"block: rows [{r0}, {r1}) and columns [{c0}, {c1}) "
                         f"invalid for shape {x.shape}")

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        x.grad[r0:r1, c0:c1] += g

    return x.tape.record("block", x.value[r0:r1, c0:c1].copy(), backward)


# ---------------------------------------------------------------------------
# nonlinearities and losses

def relu(x: Node) -> Node:
    mask = x.value > 0

    def backward(g):
        _accum(x, g * mask)

    return x.tape.record("relu", np.maximum(x.value, 0.0), backward)


def sigmoid(x: Node) -> Node:
    out = 1.0 / (1.0 + np.exp(-x.value))

    def backward(g):
        _accum(x, g * out * (1.0 - out))

    return x.tape.record("sigmoid", out, backward)


def softmax_pair(z: Node) -> Node:
    """Softmax over exactly two entries: shape (2,) or (2, batch), axis 0."""
    if z.shape[0] != 2 or z.value.ndim not in (1, 2):
        raise ShapeError(f"softmax_pair: expected shape (2,) or (2, n), got {z.shape}")
    p = _softmax_pair(z.value)

    def backward(g):
        _accum(z, _softmax_pair_grad(p, g))

    return z.tape.record("softmax_pair", p, backward)


def _softmax_pair(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def _softmax_pair_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the logits of the softmax p, given g at p."""
    dot = (p * g).sum(axis=0, keepdims=True)
    return p * (g - dot)


def bce_sum(p: Node, targets) -> Node:
    """Summed binary cross-entropy of probabilities against 0/1 targets.

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before the
    logarithm; the gradient is evaluated at the clamped value so saturated
    predictions keep a finite, correctly signed training signal.
    """
    t = _as_array(targets)
    if t.shape != p.shape:
        raise ShapeError(f"bce_sum: probability shape {p.shape} vs target shape {t.shape}")
    pc = np.clip(p.value, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = -np.add.reduce(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc), axis=None)

    def backward(g):
        _accum(p, g * (pc - t) / (pc * (1.0 - pc)))

    return p.tape.record("bce_sum", np.asarray(value), backward)


def sq_l2(x: Node) -> Node:
    """Squared L2 norm of all entries."""

    def backward(g):
        _accum(x, g * 2.0 * x.value)

    return x.tape.record("sq_l2", np.asarray(np.add.reduce(x.value * x.value, axis=None)),
                         backward)


def l1(x: Node) -> Node:
    """L1 norm of all entries; subgradient 0 at exact zeros."""

    def backward(g):
        _accum(x, g * np.sign(x.value))

    return x.tape.record("l1", np.asarray(_l1(x.value)), backward)


def _l1(x: np.ndarray):
    return np.add.reduce(np.abs(x), axis=None)


def l2_norm(*xs: Node) -> Node:
    """sqrt of the total sum of squares across all inputs (joint L2 norm).

    Realises the unsquared parameter-norm penalty of the overall loss; the
    gradient is guarded at NORM_GUARD so the norm at zero stays finite.
    """
    tape = _tape_of(*xs)
    total = 0.0
    for x in xs:
        total += float(np.add.reduce(x.value * x.value, axis=None))
    value = np.sqrt(total)
    denom = max(value, NORM_GUARD)

    def backward(g):
        for x in xs:
            step = np.multiply(g, x.value)
            np.divide(step, denom, out=step)
            _accum(x, step)

    return tape.record("l2_norm", np.asarray(value), backward)


def neg_log_col_l1(x: Node, lo: int, eps: float) -> Node:
    """sum over columns j >= lo of -log(||x[:, j]||_1 + eps).

    Each column mass is summed as a contiguous vector and the column terms
    are folded left to right, so the value equals the per-column chain
    block -> l1 -> +eps -> log -> *(-1) summed one add at a time, bit
    for bit. Subgradient 0 at exact zeros; backward adds into columns lo..
    only.
    """
    if x.value.ndim != 2:
        raise ShapeError(f"neg_log_col_l1: expected a matrix, got shape {x.shape}")
    if not (0 <= lo < x.shape[1]):
        raise ShapeError(f"neg_log_col_l1: start column {lo} invalid for shape {x.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        cols, mass, value = _neg_log_col_l1(x.value, lo, float(eps))

    def backward(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        x.grad[:, lo:] += _neg_log_col_l1_grad(cols, mass, g)

    return x.tape.record("neg_log_col_l1", value, backward)


def _neg_log_col_l1(x: np.ndarray, lo: int, eps: float):
    """(columns lo.. as rows, their L1 masses + eps, the penalty value)."""
    cols = np.ascontiguousarray(x[:, lo:].T)   # one row per column
    mass = np.abs(cols).sum(axis=1) + eps
    terms = np.log(mass) * -1.0
    return cols, mass, np.asarray(np.cumsum(terms)[-1])   # the left fold


def _neg_log_col_l1_grad(cols: np.ndarray, mass: np.ndarray, g) -> np.ndarray:
    """Gradient at columns lo.. given g at the penalty."""
    return np.sign(cols.T) * ((g * -1.0) / mass)


def grad_reverse(x: Node, scale_factor: float) -> Node:
    """Identity in the forward pass; backward multiplies the gradient by
    -scale_factor. scale_factor 0 is allowed and blocks the gradient
    entirely (the adversarial-off control); negative values are rejected.
    """
    lam = float(scale_factor)
    if lam < 0:
        raise ValueError(f"grad_reverse: scale must be >= 0, got {lam}")

    def backward(g):
        _accum(x, -lam * g)

    return x.tape.record("grad_reverse", x.value.copy(), backward)


# ---------------------------------------------------------------------------
# acyclicity of a weighted adjacency matrix

MATRIX_EXP_TAYLOR_ORDER = 12
MATRIX_EXP_TARGET_NORM = 0.5


def matrix_exp(x: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a fixed-order
    Taylor series; the squaring depth brings the scaled 1-norm under
    MATRIX_EXP_TARGET_NORM, which keeps the truncation error far below
    1e-10 for matrices up to side 64.
    """
    x = _as_array(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ShapeError(f"matrix_exp: expected a square matrix, got shape {x.shape}")
    n = x.shape[0]
    norm = np.linalg.norm(x, 1)
    if not math.isfinite(norm):
        raise NonFiniteError("matrix_exp: the matrix holds a non-finite value")
    squarings = 0
    if norm > MATRIX_EXP_TARGET_NORM:
        squarings = int(np.ceil(np.log2(norm / MATRIX_EXP_TARGET_NORM)))
    y = x / (2.0 ** squarings)
    out = np.eye(n)
    term = np.eye(n)
    product = np.empty((n, n))
    for j in range(1, MATRIX_EXP_TAYLOR_ORDER + 1):
        np.matmul(term, y, out=product)
        np.divide(product, j, out=term)
        out += term
    for _ in range(squarings):
        np.matmul(out, out, out=product)
        out, product = product, out
    return out


def _trace_exp_minus_d(op: str, a: np.ndarray) -> tuple[float, np.ndarray]:
    """(trace(exp(a * a)) - d, exp(a * a)) for a d x d matrix a."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{op}: expected a square matrix, got shape {a.shape}")
    squared = a * a
    _check_finite("acyclicity", squared)
    e = matrix_exp(squared)
    return float(np.trace(e)) - a.shape[0], e


def acyclicity(a: np.ndarray) -> float:
    """trace(exp(a * a)) - d for a d x d matrix; zero exactly when the
    nonzero pattern of a is a DAG. The node count d is subtracted.
    """
    value, _ = _trace_exp_minus_d("acyclicity", _as_array(a))
    _check_finite("acyclicity", np.asarray(value))
    return value


def acyclicity_term(a: Node) -> Node:
    """Tape node for the acyclicity scalar; backward uses the closed form."""
    value, e = _trace_exp_minus_d("acyclicity_term", a.value)
    et_2a = e.T * (2.0 * a.value)

    def backward(g):
        _accum(a, g * et_2a)

    return a.tape.record("acyclicity", np.asarray(value), backward)


# ---------------------------------------------------------------------------
# fused sub-graphs of the joint objective
#
# Each records one node for a fixed chain of the primitives above, and
# equals that chain bit for bit in its value and every gradient: backward
# repeats the chain's arithmetic and adds into the inputs in the order the
# chain's backward closures would. It skips the zeros + g that each
# intermediate node's first gradient write makes (see _accum): that only
# turns -0.0 into +0.0, a zero's sign reaches no nonzero result through
# the sums and products here, and every gradient a node holds starts as
# zeros + g. The finite checks cover every intermediate value that could
# be the first non-finite one.

def reconstruction(a: Node, h: Node) -> Node:
    """sum((h - a.T @ h) ** 2) / N over the N columns of h: the chain
    scale(sq_l2(sub(h, matmul_t(a, h))), 1 / N)."""
    if (a.value.ndim != 2 or h.value.ndim != 2 or a.shape[0] != a.shape[1]
            or a.shape[0] != h.shape[0]):
        raise ShapeError(f"reconstruction: shapes {a.shape} and {h.shape} incompatible")
    tape = _tape_of(a, h)
    c = 1.0 / h.shape[1]
    residual = h.value - a.value.T @ h.value

    def backward(g):
        g_residual = g * c * 2.0 * residual
        if h.op != "const":
            _accum(h, g_residual)
        g_fit = -g_residual
        if a.op != "const":
            _accum(a, h.value @ g_fit.T)
        if h.op != "const":
            _accum(h, a.value @ g_fit)

    value = np.asarray(np.add.reduce(residual * residual, axis=None)) * c
    return tape.record("reconstruction", value, backward)


def penalty_fold(rec: Node, dag: Node, a: Node, k: int, eps: float,
                 weights: Sequence[float]) -> tuple[Node, tuple[float, float, float]]:
    """The causal objective's weighted total over a 2k x 2k matrix a: the
    chain weighted_sum([rec, dag, l1(block(a, k, 2k, 0, k)),
    neg_log_col_l1(a, k, eps), l1(a)], [1.0, *weights]), weights being
    the (dag, direction, not-a-root, sparsity) multipliers.

    Returns the node and the unweighted (direction, not-a-root, sparsity)
    penalty values. Backward adds into a the sparsity, not-a-root and
    direction gradients, in that order.
    """
    if a.value.ndim != 2 or a.shape != (2 * k, 2 * k) or k < 1:
        raise ShapeError(f"penalty_fold: expected a {2 * k}x{2 * k} matrix, got {a.shape}")
    if rec.value.ndim != 0 or dag.value.ndim != 0 or len(weights) != 4:
        raise ShapeError("penalty_fold: needs scalar rec and dag and four weights")
    tape = _tape_of(rec, dag, a)
    weights = [1.0] + [float(w) for w in weights]
    direction = np.asarray(_l1(a.value[k:, :k]))
    cols, mass, not_root = _neg_log_col_l1(a.value, k, float(eps))
    sparsity = np.asarray(_l1(a.value))
    for name, term in (("direction", direction), ("not_root", not_root),
                       ("sparsity", sparsity)):
        _check_finite(name, term)

    def backward(g):
        _accum(rec, g * weights[0])
        _accum(dag, g * weights[1])
        g_direction, g_not_root, g_sparsity = (g * w for w in weights[2:])
        _accum(a, g_sparsity * np.sign(a.value))
        a.grad[:, k:] += _neg_log_col_l1_grad(cols, mass, g_not_root)
        a.grad[k:, :k] += g_direction * np.sign(a.value[k:, :k])

    value = _fold([rec.value, dag.value, direction, not_root, sparsity], weights)
    node = tape.record("penalty_fold", value, backward)
    return node, (float(direction), float(not_root), float(sparsity))


def _require_product(op: str, w: Node, x: Node) -> None:
    if w.value.ndim != 2 or x.value.ndim != 2 or w.shape[1] != x.shape[0]:
        raise ShapeError(f"{op}: shapes {w.shape} and {x.shape} incompatible")


def discriminator(x: Node, w1: Node, w2: Node, w3: Node, grl_scale: float) -> Node:
    """sigmoid(w3 @ relu(w2 @ relu(w1 @ grad_reverse(x, grl_scale)))): two
    ReLU layers and sigmoid outputs behind a gradient-reversal node."""
    lam = float(grl_scale)
    if lam < 0:
        raise ValueError(f"discriminator: grl_scale must be >= 0, got {lam}")
    _require_product("discriminator", w1, x)
    _require_product("discriminator", w2, w1)
    _require_product("discriminator", w3, w2)
    tape = _tape_of(x, w1, w2, w3)
    x_in = np.ascontiguousarray(x.value)   # C order, like the reversal node's copy
    z1 = w1.value @ x_in
    _check_finite("discriminator", z1)
    h1 = np.maximum(z1, 0.0)
    z2 = w2.value @ h1
    _check_finite("discriminator", z2)
    h2 = np.maximum(z2, 0.0)
    z3 = w3.value @ h2
    _check_finite("discriminator", z3)
    out = 1.0 / (1.0 + np.exp(-z3))

    def backward(g):
        g3 = g * out * (1.0 - out)
        _accum(w3, g3 @ h2.T)
        g2 = (w3.value.T @ g3) * (z2 > 0)
        _accum(w2, g2 @ h1.T)
        g1 = (w2.value.T @ g2) * (z1 > 0)
        _accum(w1, g1 @ x_in.T)
        _accum(x, -lam * (w1.value.T @ g1))

    return tape.record("discriminator", out, backward)


def gate(w: Node, f: Node, e: Node) -> Node:
    """Row 1 of the two-way softmax of w @ (f * e) for a 2-row w: the
    chain block(softmax_pair(matmul(w, mul(f, e))), 1, 2, 0, n)."""
    _require_same_shape("gate", f, e)
    _require_product("gate", w, f)
    if w.shape[0] != 2:
        raise ShapeError(f"gate: expected 2 output rows, got shape {w.shape}")
    tape = _tape_of(w, f, e)
    gated = f.value * e.value
    logits = w.value @ gated
    _check_finite("gate", logits)
    p = _softmax_pair(logits)

    def backward(g):
        g_p = np.zeros_like(p)
        g_p[1:2] = g
        g_logits = _softmax_pair_grad(p, g_p)
        _accum(w, g_logits @ gated.T)
        g_gated = w.value.T @ g_logits
        _accum(f, g_gated * e.value)
        _accum(e, g_gated * f.value)

    return tape.record("gate", p[1:2].copy(), backward)


# ---------------------------------------------------------------------------
# finite-difference validation

def finite_diff_details(loss_fn: Callable[[Mapping[str, np.ndarray]], float],
                        params: Mapping[str, np.ndarray],
                        grads: Mapping[str, np.ndarray],
                        step: float = 1e-5) -> dict[str, float]:
    """Per-parameter maximum discrepancy between the analytic gradients
    grads and central finite differences of loss_fn around params.

    loss_fn maps a {name: matrix} dict to the loss value; it must be
    deterministic, which is verified by evaluating it twice at params.
    Entries compare relatively except where both magnitudes fall below
    REL_ERR_ABS_SWITCH, where the absolute difference is used.
    """
    if not (0.0 < step <= 1e-2):
        raise ValueError(f"step must lie in (0, 1e-2], got {step}")
    base = {name: _as_array(value).copy() for name, value in params.items()}
    if loss_fn(base) != loss_fn(base):
        raise ValueError("loss_fn is not deterministic: two evaluations differ")

    errors: dict[str, float] = {}
    for name, matrix in base.items():
        grad = _as_array(grads[name])
        if grad.shape != matrix.shape:
            raise ShapeError(f"gradient shape {grad.shape} != parameter shape "
                             f"{matrix.shape} for {name!r}")
        worst = 0.0
        flat = matrix.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = loss_fn(base)
            flat[i] = original - step
            minus = loss_fn(base)
            flat[i] = original
            fd = (plus - minus) / (2.0 * step)
            g = grad.reshape(-1)[i]
            denom = max(abs(g), abs(fd))
            if denom < REL_ERR_ABS_SWITCH:
                err = abs(g - fd)
            else:
                err = abs(g - fd) / denom
            worst = max(worst, err)
        errors[name] = worst
    return errors
