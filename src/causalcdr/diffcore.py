"""Reverse-mode gradient engine over dense float64 matrices.

Supplies the primitives that the joint recommendation loss runs: the
elementwise product, a weighted sum, concatenation and contiguous blocks,
the joint L2 norm of a packed parameter vector and the trace-exponential
acyclicity scalar. Five fused nodes each equal a fixed chain of primitives
bit for bit: the causal reconstruction, the causal penalties' weighted
fold, and the training step's per-domain encoder, per-domain interaction
loss and adversarial domain loss. The chains themselves live in the tests
as references. Candidate scoring and the discriminator probe run the
forward arithmetic of the encoder, interaction and domain-loss nodes
through the same private helpers, without recording a node. A tape
records operations in execution order; the backward pass replays them in
reverse and accumulates exact analytic gradients. Parameters are packed
into one vector (see pack) and registered in one call; their gradients
are views of one flat buffer.

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
    flat buffer per registered vector (see params). backward() zeroes
    those buffers before it replays the record, so a forward node may use
    them as scratch.

    Tape(grad=False) is a value-only tape for forward passes that need no
    gradient (scoring and the probe register their parameters on one,
    and the gradient check evaluates losses on one): it keeps no record
    and no parameter node, so its nodes are freed as soon as the caller
    drops them, and its backward() raises.
    """

    def __init__(self, grad: bool = True,
                 grad_buffer: tuple[np.ndarray, dict[str, np.ndarray]] | None = None):
        self._records: list[tuple[Node, Callable[[np.ndarray], None]]] | None = (
            [] if grad else None)
        self._params: dict[str, Node | None] = {}
        self._grads: dict[str, np.ndarray] | None = None
        self._grad_flats: list[np.ndarray] = []
        # id of each registered vector -> its views in order (see l2_norm)
        self._vectors: dict[int, tuple[np.ndarray, ...]] = {}
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
        grad_buffer or a new one. A grad_buffer is a (vector, views) pair
        as pack returns it for flat's matrices; its views are used as they
        are. The first call takes the grad_buffer; a later call gets a new
        one.
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
        self._vectors[id(flat)] = tuple(views.values())
        if self._records is None:
            self._params.update(dict.fromkeys(nodes))
            return nodes
        buffer, self._grad_buffer = self._grad_buffer, None
        if buffer is None:
            grad = np.empty_like(flat)
            grads = _views(grad, {name: view.shape for name, view in views.items()})
        else:
            grad, grads = buffer
            if grad.shape != flat.shape:
                raise ShapeError(f"grad_buffer shape {grad.shape} != packed shape {flat.shape}")
            if len(grads) != len(views) or any(
                    g.base is not grad or g.shape != v.shape
                    for g, v in zip(grads.values(), views.values())):
                raise ShapeError("grad_buffer views do not match the packed matrices")
        for node, g in zip(nodes.values(), grads.values()):
            node.grad = g
        self._grad_flats.append(grad)
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
        for grad in self._grad_flats:
            grad.fill(0.0)
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


def _grad(node: Node) -> np.ndarray:
    """node's gradient, zeros until the first write, for writes into part
    of it; zeros + g has the bits _accum's first write gives."""
    if node.grad is None:
        node.grad = np.zeros(node.value.shape)
    return node.grad


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

def mul(a: Node, b: Node) -> Node:
    _require_same_shape("mul", a, b)
    tape = _tape_of(a, b)

    def backward(g):
        if a.op != "const":
            _accum(a, g * b.value)
        if b.op != "const":
            _accum(b, g * a.value)

    return tape.record("mul", a.value * b.value, backward)


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
# structure: column indices, concatenation and contiguous blocks

def _column_indices(op: str, w: Node, indices) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    if w.value.ndim != 2:
        raise ShapeError(f"{op}: expected a matrix, got shape {w.shape}")
    if idx.ndim != 1:
        raise ShapeError(f"{op}: indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= w.shape[1]):
        raise ShapeError(f"{op}: index out of range for {w.shape[1]} columns")
    return idx


def hconcat(a: Node, b: Node, rows: int | None = None) -> Node:
    """Concatenate rows 0:rows (default all) of two matrices along axis 1
    (column-stacked batches)."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"hconcat: shapes {a.shape} and {b.shape} incompatible")
    rows = a.shape[0] if rows is None else rows
    if not 0 <= rows <= a.shape[0]:
        raise ShapeError(f"hconcat: rows [0, {rows}) invalid for shape {a.shape}")
    tape = _tape_of(a, b)
    split = a.shape[1]

    def backward(g):
        _grad(a)[:rows] += g[:, :split]
        _grad(b)[:rows] += g[:, split:]

    return tape.record("hconcat", np.concatenate([a.value[:rows], b.value[:rows]], axis=1),
                       backward)


def block(x: Node, r0: int, r1: int, c0: int, c1: int) -> Node:
    """Contiguous block x[r0:r1, c0:c1] of a matrix."""
    if x.value.ndim != 2:
        raise ShapeError(f"block: expected a matrix, got shape {x.shape}")
    if not (0 <= r0 <= r1 <= x.shape[0] and 0 <= c0 <= c1 <= x.shape[1]):
        raise ShapeError(f"block: rows [{r0}, {r1}) and columns [{c0}, {c1}) "
                         f"invalid for shape {x.shape}")

    def backward(g):
        _grad(x)[r0:r1, c0:c1] += g

    return x.tape.record("block", x.value[r0:r1, c0:c1].copy(), backward)


# ---------------------------------------------------------------------------
# the two-way softmax, losses and the parameter norm

def _softmax_pair(z: np.ndarray) -> np.ndarray:
    """Softmax over exactly two entries: shape (2,) or (2, batch), axis 0."""
    shifted = z - z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=0, keepdims=True)


def _softmax_pair_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the logits of the softmax p, given g at p."""
    dot = (p * g).sum(axis=0, keepdims=True)
    return p * (g - dot)


def _bce(p: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(clamped p, summed binary cross-entropy of p against 0/1 targets t).

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before the
    logarithm; _bce_grad evaluates the gradient at the clamped value, so
    saturated predictions keep a finite, correctly signed training signal.
    """
    pc = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    value = -np.add.reduce(t * np.log(pc) + (1.0 - t) * np.log(1.0 - pc), axis=None)
    return pc, np.asarray(value)


def _bce_grad(g, pc: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gradient at the probabilities, given g at the summed loss."""
    return g * (pc - t) / (pc * (1.0 - pc))


def _l1(x: np.ndarray):
    return np.add.reduce(np.abs(x), axis=None)


def _neg_log_col_l1(x: np.ndarray, lo: int, eps: float):
    """(columns lo.. as rows, their L1 masses + eps, the summed -log of
    the masses). Each column mass is summed as a contiguous vector and the
    column terms are folded left to right."""
    cols = np.ascontiguousarray(x[:, lo:].T)   # one row per column
    mass = np.abs(cols).sum(axis=1) + eps
    terms = np.log(mass) * -1.0
    return cols, mass, np.asarray(np.cumsum(terms)[-1])   # the left fold


def _neg_log_col_l1_grad(cols: np.ndarray, mass: np.ndarray, g) -> np.ndarray:
    """Gradient at columns lo.. given g at the penalty; subgradient 0 at
    exact zeros."""
    return np.sign(cols.T) * ((g * -1.0) / mass)


NORM_CHUNK = 32768  # entries per in-place pass of the norm's backward


def l2_norm(*xs: Node) -> Node:
    """sqrt of the total sum of squares across all inputs (joint L2 norm).

    Realises the unsquared parameter-norm penalty of the overall loss; the
    gradient is guarded at NORM_GUARD so the norm at zero stays finite.
    xs must be the nodes of every matrix of one packed vector, in the
    order Tape.params registered them; the views the tape keeps for that
    vector are checked against them. The work runs on the packed vector:
    one product gives the squares, in the gradient buffer on a gradient
    tape (backward zeroes it), and one reduction per matrix sums them in
    xs' order. Backward adds g * x / norm into the gradients in three
    in-place passes over chunks of NORM_CHUNK entries, so it allocates
    no table-sized array. Every entry rounds as in a per-matrix chain.
    """
    tape = _tape_of(*xs)
    flat = xs[0].value.base
    views = tape._vectors.get(id(flat), ())
    sizes = [x.value.size for x in xs]
    if (len(views) != len(xs) or any(x.value is not v for x, v in zip(xs, views))
            or sum(sizes) != flat.size):
        raise ShapeError("l2_norm: the inputs must be every matrix of one packed vector, "
                         "in order")
    grad = None if xs[0].grad is None else xs[0].grad.base
    squares = np.multiply(flat, flat, out=grad)
    total = 0.0
    start = 0
    for size in sizes:
        total += float(np.add.reduce(squares[start:start + size]))
        start += size
    value = np.sqrt(total)
    denom = max(value, NORM_GUARD)

    def backward(g):
        step = np.empty(min(flat.size, NORM_CHUNK))
        for lo in range(0, flat.size, NORM_CHUNK):
            part = slice(lo, lo + NORM_CHUNK)
            s = step[:flat[part].size]
            np.multiply(flat[part], g, out=s)
            np.divide(s, denom, out=s)
            np.add(grad[part], s, out=grad[part])

    return tape.record("l2_norm", np.asarray(value), backward)


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
#
# Operand layout is part of the bits. Every product takes its operands in
# the memory order the chain gives them: OpenBLAS may round the same
# product differently for a C-ordered copy of an operand. A column gather
# w[:, idx] returns a Fortran-ordered array, so every product with the
# gathered attributes u uses that array (encode returns it), never a row
# block of E; a block the chain copies (block, vconcat) is copied to C
# order here too, and row blocks of C-ordered E or of a C-ordered
# gradient have the strides of the chain's own C-ordered arrays.
#
# The forward arithmetic of encode, head and domain_bce lives in private
# helpers that return arrays (_encode_forward, _fuse, _gated_softmax and
# _layers). Candidate scoring and the discriminator probe run the same
# helpers on the parameters of a value-only tape, so they round exactly as
# a training step does and record no node.

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


def _layers(op: str, source: np.ndarray, target: np.ndarray, w1: Node, w2: Node,
            w3: Node):
    """The discriminator sigmoid(w3 @ relu(z2)), z2 = w2 @ relu(z1) and
    z1 = w1 @ x, on x = the rows k:2k of two encode outputs side by side,
    source's columns first, k being w1's column count.

    Returns the outputs, (z1, z2) and the backward, which takes g at the
    outputs, adds into w3, w2 and w1 and returns the gradient at x.
    """
    _require_product(op, w2, w1)
    _require_product(op, w3, w2)
    k = w1.shape[1]
    x_in = np.concatenate([source[k:2 * k], target[k:2 * k]], axis=1)
    z1 = w1.value @ x_in
    _check_finite(op, z1)
    h1 = np.maximum(z1, 0.0)
    z2 = w2.value @ h1
    _check_finite(op, z2)
    h2 = np.maximum(z2, 0.0)
    z3 = w3.value @ h2
    _check_finite(op, z3)
    out = 1.0 / (1.0 + np.exp(-z3))

    def backward(g):
        g3 = g * out * (1.0 - out)
        _accum(w3, g3 @ h2.T)
        g2 = (w3.value.T @ g3) * (z2 > 0)
        _accum(w2, g2 @ h1.T)
        g1 = (w2.value.T @ g2) * (z1 > 0)
        _accum(w1, g1 @ x_in.T)
        return w1.value.T @ g1

    return out, (z1, z2), backward


def domain_bce(source: Node, target: Node, w1: Node, w2: Node, w3: Node,
               grl_scale: float) -> Node:
    """The adversarial domain loss over two encode outputs: the chain
    bce_sum(sigmoid(matmul(w3, relu(matmul(w2, relu(matmul(w1,
    grad_reverse(x, grl_scale))))))), labels) on x = hconcat(block(source,
    k, 2k), block(target, k, 2k)), k being w1's column count. The labels
    are one-hot per column: unit 0 for source's columns, unit 1 for
    target's (model.DOMAIN_LABEL_UNIT)."""
    lam = float(grl_scale)
    if lam < 0:
        raise ValueError(f"domain_bce: grl_scale must be >= 0, got {lam}")
    k = w1.shape[1]
    if (source.value.ndim != 2 or target.value.ndim != 2 or source.shape[0] < 2 * k
            or target.shape[0] < 2 * k):
        raise ShapeError(f"domain_bce: shapes {source.shape} and {target.shape} "
                         f"lack rows {k}:{2 * k}")
    tape = _tape_of(source, target, w1, w2, w3)
    split = source.shape[1]
    out, _, layers_backward = _layers("domain_bce", source.value, target.value, w1, w2, w3)
    labels = np.zeros(out.shape)
    labels[0, :split] = 1.0
    labels[1, split:] = 1.0
    pc, value = _bce(out, labels)

    def backward(g):
        g_x = -lam * layers_backward(_bce_grad(g, pc, labels))
        _grad(source)[k:2 * k] += g_x[:, :split]
        _grad(target)[k:2 * k] += g_x[:, split:]

    return tape.record("domain_bce", value, backward)


def _gated_softmax(op: str, w: Node, f: np.ndarray, e: np.ndarray):
    """The two-way softmax of w @ (f * e) for a 2-row w, and the backward
    that takes g at its row 1, adds into w and returns the gradients at f
    and e."""
    if w.value.ndim != 2 or w.shape[0] != 2 or w.shape[1] != f.shape[0]:
        raise ShapeError(f"{op}: weights of shape {w.shape} for operands of shape {f.shape}")
    gated = f * e
    logits = w.value @ gated
    _check_finite(op, logits)
    p = _softmax_pair(logits)

    def backward(g):
        g_p = np.zeros_like(p)
        g_p[1:2] = g
        g_logits = _softmax_pair_grad(p, g_p)
        _accum(w, g_logits @ gated.T)
        g_gated = w.value.T @ g_logits
        return g_gated * e, g_gated * f

    return p, backward


def _encode_forward(table: Node, users, shared: Node, specific: Node):
    """encode's forward: (idx, u, z, E) for the column indices idx of
    users, u = table[:, idx] as the gather makes it, z = shared @ u and
    E = [u; relu(z); specific @ u]. z and E are checked finite."""
    idx = _column_indices("encode", table, users)
    k = table.shape[0]
    if shared.shape != (k, k) or specific.shape != (k, k):
        raise ShapeError(f"encode: maps of shapes {shared.shape} and {specific.shape} "
                         f"for {k} attributes")
    att = table.value[:, idx]
    z = shared.value @ att
    _check_finite("encode", z)
    value = np.concatenate([att, np.maximum(z, 0.0), specific.value @ att], axis=0)
    _check_finite("encode", value)
    return idx, att, z, value


def encode(table: Node, users, shared: Node, specific: Node) -> tuple[Node, np.ndarray]:
    """One domain's user encoder: E = [u; relu(shared @ u); specific @ u]
    (3k x n) for the attribute columns u = table[:, users]. The chain is
    gather_cols, then relu(matmul(shared, u)) and matmul(specific, u).

    Returns the node and u as the gather made it, for head (see the
    layout rule above). Backward adds into u's gradient, after what E's
    rows 0:k hold, the shared then the specific path, and gathers the
    sum into table's columns.
    """
    tape = _tape_of(table, shared, specific)
    idx, att, z, value = _encode_forward(table, users, shared, specific)
    k = table.shape[0]
    mask = z > 0

    def backward(g):
        g_att = g[:k]
        g_z = g[k:2 * k] * mask
        _accum(shared, g_z @ att.T)
        g_att += shared.value.T @ g_z
        g_specific = g[2 * k:]
        _accum(specific, g_specific @ att.T)
        g_att += specific.value.T @ g_specific
        np.add.at(_grad(table), (slice(None), idx), g_att)

    return tape.record("encode", value, backward), att


def _fuse(att: np.ndarray, specific: np.ndarray, a_pref: np.ndarray | None,
          fusion: np.ndarray):
    """head's user side: (w, v, w @ v), the fused preference of the
    domain-specific preference specific and the causal-invariant one
    a_pref.T @ att, for v = [specific; a_pref.T @ att] and w = fusion.
    a_pref None (the no-causal ablation) fuses specific alone: v =
    specific and w a copy of fusion's left k columns, the block node's
    copy. The causal preference and the product are checked finite."""
    k = att.shape[0]
    if a_pref is None:
        w = fusion[:, :k].copy()
        v = specific
    else:
        causal = a_pref.T @ att
        _check_finite("head", causal)
        w = fusion
        v = np.concatenate([specific, causal], axis=0)
    fused = w @ v
    _check_finite("head", fused)
    return w, v, fused


def head(e: Node, att: np.ndarray, a_pref: Node | None, fusion: Node, table: Node,
         items, predictor: Node, labels) -> Node:
    """One domain's interaction loss on an encode output e and its u =
    att: the chain bce_sum(block(softmax_pair(matmul(predictor, mul(f,
    gather_cols(table, items)))), 1, 2, 0, n), labels) for the fused
    preference f = matmul(fusion, vconcat(s, matmul_t(a_pref, u))), s
    being e's rows 2k:3k. a_pref None (the no-causal ablation) fuses s
    alone, through matmul(block(fusion, 0, k, 0, k), s).

    Backward adds into e's rows 2k:3k, then table's columns, then a_pref
    and e's rows 0:k.
    """
    k, n = att.shape
    idx = _column_indices("head", table, items)
    if (e.shape != (3 * k, n) or fusion.shape != (k, 2 * k) or table.shape[0] != k
            or idx.size != n or (a_pref is not None and a_pref.shape != (k, k))):
        raise ShapeError(f"head: shapes {e.shape}, {fusion.shape} and {table.shape} "
                         f"incompatible for {idx.size} items")
    tape = _tape_of(e, fusion, table, predictor, *([] if a_pref is None else [a_pref]))
    t = _as_array(labels).reshape(1, n)
    w, v, fused = _fuse(att, e.value[2 * k:], None if a_pref is None else a_pref.value,
                        fusion.value)
    item = table.value[:, idx]
    p, gate_backward = _gated_softmax("head", predictor, fused, item)
    pc, value = _bce(p[1:2], t)

    def backward(g):
        g_fused, g_item = gate_backward(_bce_grad(g, pc, t))
        if a_pref is None:
            _grad(fusion)[:, :k] += g_fused @ v.T
            g_specific = w.T @ g_fused
        else:
            _accum(fusion, g_fused @ v.T)
            g_v = fusion.value.T @ g_fused
            g_specific = g_v[:k]
        _grad(e)[2 * k:] += g_specific
        np.add.at(_grad(table), (slice(None), idx), g_item)
        if a_pref is not None:
            g_causal = g_v[k:]
            _accum(a_pref, att @ g_causal.T)
            e.grad[:k] += a_pref.value @ g_causal

    return tape.record("head", value, backward)


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
