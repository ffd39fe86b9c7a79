"""Primitive chains that the fused tape nodes of causalcdr replace.

Only the tests use this module. Each fused node in causalcdr.diffcore
must equal its chain here bit for bit, in value and in every gradient.
total_loss below is the training step as primitive nodes: the reference
that model.total_loss is compared against. score_candidates and
probe_outputs are the chains that candidate scoring and the
discriminator probe must equal byte for byte. Under pytest's default
import mode the tests directory is on sys.path, so test modules import
this one as reference_ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from causalcdr import causal, diffcore as dc, model
from causalcdr.diffcore import Node, _accum, _require_same_shape, _tape_of


# ---------------------------------------------------------------------------
# primitives

def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.shape[1] != b.shape[0]:
        raise dc.ShapeError(f"matmul: shapes {a.shape} and {b.shape} incompatible")
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
        raise dc.ShapeError(f"matmul_t: shapes {a.shape} and {b.shape} incompatible")
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
    idx = dc._column_indices("gather_cols", w, indices)

    def backward(g):
        np.add.at(dc._grad(w), (slice(None), idx), g)

    return w.tape.record("gather_cols", w.value[:, idx], backward)


def vconcat(a: Node, b: Node) -> Node:
    """Concatenate along axis 0: vectors end to end, matrices row-stacked."""
    if a.value.ndim != b.value.ndim:
        raise dc.ShapeError(f"vconcat: ranks {a.value.ndim} and {b.value.ndim} differ")
    if a.value.ndim == 2 and a.shape[1] != b.shape[1]:
        raise dc.ShapeError(f"vconcat: column counts {a.shape} vs {b.shape} differ")
    tape = _tape_of(a, b)
    split = a.shape[0]

    def backward(g):
        _accum(a, g[:split])
        _accum(b, g[split:])

    return tape.record("vconcat", np.concatenate([a.value, b.value], axis=0), backward)


def relu(x: Node) -> Node:
    mask = x.value > 0

    def backward(g):
        _accum(x, g * mask)

    return x.tape.record("relu", np.maximum(x.value, 0.0), backward)


def sub(a: Node, b: Node) -> Node:
    _require_same_shape("sub", a, b)
    tape = _tape_of(a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return tape.record("sub", a.value - b.value, backward)


def scale(x: Node, c: float) -> Node:
    c = float(c)

    def backward(g):
        _accum(x, g * c)

    return x.tape.record("scale", x.value * c, backward)


def sigmoid(x: Node) -> Node:
    out = 1.0 / (1.0 + np.exp(-x.value))

    def backward(g):
        _accum(x, g * out * (1.0 - out))

    return x.tape.record("sigmoid", out, backward)


def softmax_pair(z: Node) -> Node:
    """Softmax over exactly two entries: shape (2,) or (2, batch), axis 0."""
    if z.shape[0] != 2 or z.value.ndim not in (1, 2):
        raise dc.ShapeError(f"softmax_pair: expected shape (2,) or (2, n), got {z.shape}")
    p = dc._softmax_pair(z.value)

    def backward(g):
        _accum(z, dc._softmax_pair_grad(p, g))

    return z.tape.record("softmax_pair", p, backward)


def bce_sum(p: Node, targets) -> Node:
    """Summed binary cross-entropy of probabilities against 0/1 targets.

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] before the
    logarithm; the gradient is evaluated at the clamped value so saturated
    predictions keep a finite, correctly signed training signal.
    """
    t = dc._as_array(targets)
    if t.shape != p.shape:
        raise dc.ShapeError(f"bce_sum: probability shape {p.shape} vs target shape {t.shape}")
    pc = np.clip(p.value, dc.PROB_CLAMP, 1.0 - dc.PROB_CLAMP)
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

    return x.tape.record("l1", np.asarray(dc._l1(x.value)), backward)


def l2_norm(*xs: Node) -> Node:
    """sqrt of the total sum of squares across any inputs, one matrix at
    a time: the chain that dc.l2_norm runs on a packed vector."""
    tape = _tape_of(*xs)
    total = 0.0
    for x in xs:
        total += float(np.add.reduce(x.value * x.value, axis=None))
    value = np.sqrt(total)
    denom = max(value, dc.NORM_GUARD)

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
        raise dc.ShapeError(f"neg_log_col_l1: expected a matrix, got shape {x.shape}")
    if not (0 <= lo < x.shape[1]):
        raise dc.ShapeError(f"neg_log_col_l1: start column {lo} invalid for shape {x.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        cols, mass, value = dc._neg_log_col_l1(x.value, lo, float(eps))

    def backward(g):
        dc._grad(x)[:, lo:] += dc._neg_log_col_l1_grad(cols, mass, g)

    return x.tape.record("neg_log_col_l1", value, backward)


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
# the training step as primitive nodes

def domain_loss(lhat: Node, domains) -> Node:
    """Summed binary cross-entropy of discriminator outputs against one-hot
    domain labels (one example per column). ShapeError unless domains
    names exactly one domain per column of the 2-row lhat."""
    domains = list(domains)
    if lhat.value.ndim != 2 or lhat.shape != (len(model.DOMAIN_LABEL_UNIT), len(domains)):
        raise dc.ShapeError(f"domain_loss: {len(domains)} domains for discriminator "
                            f"outputs of shape {lhat.shape}")
    try:
        units = [model.DOMAIN_LABEL_UNIT[domain] for domain in domains]
    except KeyError as exc:
        raise ValueError(f"unknown domain {exc.args[0]!r}") from None
    labels = np.zeros(lhat.shape)
    labels[units, np.arange(len(units))] = 1.0
    return bce_sum(lhat, labels)


def interaction_loss(probs: Node, labels) -> Node:
    return bce_sum(probs, np.asarray(labels, dtype=np.float64).reshape(probs.shape))


def _suffix(domain: str) -> str:
    return "_s" if domain == "source" else "_t"


def discriminate(nodes: dict, u_shared: Node, grl_scale: float) -> Node:
    """Domain probabilities from the shared preference behind the
    gradient-reversal node; unit 0 is source, unit 1 is target."""
    reversed_in = grad_reverse(u_shared, grl_scale)
    hidden1 = relu(matmul(nodes["disc_h1"], reversed_in))
    hidden2 = relu(matmul(nodes["disc_h2"], hidden1))
    return sigmoid(matmul(nodes["disc_out"], hidden2))


def gate(nodes: dict, domain: str, fused: Node, item_emb: Node) -> Node:
    """Interaction probability: gate the fused preference by the item
    embedding, softmax the two logits, keep the interacted unit."""
    logits = matmul(nodes["predictor" + _suffix(domain)], dc.mul(fused, item_emb))
    return dc.block(softmax_pair(logits), 1, 2, 0, logits.shape[1])


def fuse(nodes: dict, domain: str, u_specific: Node, u_causal: Node | None) -> Node:
    """Fused user preference; u_causal None (the no-causal ablation) fuses
    u_specific with the left k columns of fusion_* alone."""
    fusion = nodes["fusion" + _suffix(domain)]
    if u_causal is None:
        k = u_specific.shape[0]
        return matmul(dc.block(fusion, 0, fusion.shape[0], 0, k), u_specific)
    return matmul(fusion, vconcat(u_specific, u_causal))


def causal_preference(a_pref: Node | None, u_att: Node) -> Node | None:
    return None if a_pref is None else matmul_t(a_pref, u_att)


@dataclass
class ForwardArtifacts:
    u_att: Node
    u_shared: Node
    probs: Node  # 1 x n interaction probabilities


def predict(nodes: dict, domain: str, u_specific: Node, u_causal: Node | None,
            item_emb: Node) -> Node:
    """Interaction probability of each (user preference, item) column."""
    return gate(nodes, domain, fuse(nodes, domain, u_specific, u_causal), item_emb)


def forward_batch(nodes: dict, domain: str, batch: model.Batch,
                  a_pref: Node | None) -> ForwardArtifacts:
    """Full prediction path for one domain; a_pref is the
    attribute->preference block (causal.preference_block), or None for
    the no-causal ablation."""
    suffix = _suffix(domain)
    u_att = gather_cols(nodes["user_att" + suffix], batch.users)
    u_specific = matmul(nodes["user_map" + suffix], u_att)
    u_shared = relu(matmul(nodes["shared_encoder"], u_att))
    u_causal = causal_preference(a_pref, u_att)
    item_emb = gather_cols(nodes["item_emb" + suffix], batch.items)
    probs = predict(nodes, domain, u_specific, u_causal, item_emb)
    return ForwardArtifacts(u_att=u_att, u_shared=u_shared, probs=probs)


def score_candidates(nodes: dict, users, items, a_pref: Node | None) -> np.ndarray:
    """model.score_candidates as primitive nodes: the user side once per
    list, then gather_cols repeats each fused preference across the list."""
    items = np.asarray(items)
    n_lists, per_list = items.shape
    u_att = gather_cols(nodes["user_att_t"], users)
    u_specific = matmul(nodes["user_map_t"], u_att)
    fused = fuse(nodes, "target", u_specific, causal_preference(a_pref, u_att))
    fused = gather_cols(fused, np.repeat(np.arange(n_lists), per_list))
    probs = gate(nodes, "target", fused, gather_cols(nodes["item_emb_t"], items.ravel()))
    return probs.value.reshape(n_lists, per_list)


def probe_outputs(nodes: dict, n_users: int) -> np.ndarray:
    """The discriminator outputs that training.discriminator_probe reads:
    every user's shared preference, source domain first."""
    users = np.arange(n_users)
    shared = dc.hconcat(*(relu(matmul(nodes["shared_encoder"],
                                      gather_cols(nodes["user_att" + suffix], users)))
                          for suffix in ("_s", "_t")))
    return discriminate(nodes, shared, 0.0).value


def total_loss(tape: dc.Tape, params: model.ModelParams, target_batch: model.Batch,
               source_batch: model.Batch | None,
               config: model.LossConfig) -> tuple[Node, model.LossBreakdown]:
    """model.total_loss as the chain it fuses: 45 nodes in a full step and
    35 in a no-causal one."""
    if len(target_batch) == 0:
        raise ValueError("target batch must be nonempty")
    if config.ablation != "no_source" and (source_batch is None or len(source_batch) == 0):
        raise ValueError("source batch must be nonempty outside the no-source ablation")
    if config.ablation == "no_source":
        source_batch = None

    k = params.dims.k
    nodes = params.register(tape)
    use_causal = config.ablation != "no_causal"
    a_eff = (causal.effective_adjacency(nodes["adjacency"], k,
                                        params.strict_causal_mask)
             if use_causal else None)
    a_pref = causal.preference_block(a_eff, k) if use_causal else None

    target_art = forward_batch(nodes, "target", target_batch, a_pref)
    loss_target = interaction_loss(target_art.probs, target_batch.labels)

    zero = tape.constant(0.0)
    loss_source = zero
    loss_domain = zero
    source_art = None
    if source_batch is not None:
        source_art = forward_batch(nodes, "source", source_batch, a_pref)
        loss_source = interaction_loss(source_art.probs, source_batch.labels)
        shared_all = dc.hconcat(source_art.u_shared, target_art.u_shared)
        lhat = discriminate(nodes, shared_all, config.grl_scale)
        loss_domain = domain_loss(
            lhat, ["source"] * len(source_batch) + ["target"] * len(target_batch))

    loss_causal = zero
    causal_terms = None
    if use_causal:
        h = vconcat(target_art.u_att, target_art.u_shared)
        if source_art is not None:
            h_source = vconcat(source_art.u_att, source_art.u_shared)
            h = dc.hconcat(h, h_source)
        loss_causal, causal_terms = causal.causal_loss(a_eff, h, k, config.penalty)

    reg = l2_norm(*nodes.values())

    total = dc.weighted_sum(
        [loss_target, loss_source, loss_domain, loss_causal, reg],
        [1.0, config.lambda_source, config.lambda_domain, config.lambda_causal,
         config.lambda_reg])
    breakdown = model.LossBreakdown(
        total=float(total.value),
        interaction_target=float(loss_target.value),
        interaction_source=float(loss_source.value),
        domain=float(loss_domain.value),
        causal=float(loss_causal.value),
        regularizer=float(reg.value),
        causal_terms=causal_terms,
    )
    return total, breakdown
