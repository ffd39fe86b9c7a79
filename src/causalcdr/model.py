"""The recommendation network and its loss terms.

Per domain: an item embedding table, a user latent-attribute table, and a
linear map from attributes to the domain-specific preference. Shared
across domains: a ReLU encoder producing the domain-shared preference, a
discriminator (two ReLU hidden layers, two sigmoid outputs) fed through a
gradient-reversal node, and the causal adjacency. Prediction fuses the
domain-specific and causal-invariant preferences, gates them with the
item embedding, and reads an interaction probability off a two-way
softmax head.

Forward paths run on column batches: a batch of n examples is a k x n
matrix, one column per example. A training step runs the model as fused
diffcore nodes (total_loss); candidate scoring and the discriminator
probe run those nodes' forward helpers on the parameters of a value-only
tape, so the model's math is written once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import causal, diffcore as dc, matrixio
from .diffcore import Node

DOMAIN_LABEL_UNIT = {"source": 0, "target": 1}  # output unit per domain


@dataclass
class ModelDims:
    k: int
    n_users: int
    n_source_items: int
    n_target_items: int


PARAM_SHAPES = {
    "item_emb_s": lambda d: (d.k, d.n_source_items),
    "item_emb_t": lambda d: (d.k, d.n_target_items),
    "user_att_s": lambda d: (d.k, d.n_users),
    "user_att_t": lambda d: (d.k, d.n_users),
    "user_map_s": lambda d: (d.k, d.k),
    "user_map_t": lambda d: (d.k, d.k),
    "shared_encoder": lambda d: (d.k, d.k),
    "disc_h1": lambda d: (d.k, d.k),
    "disc_h2": lambda d: (d.k, d.k),
    "disc_out": lambda d: (2, d.k),
    "fusion_s": lambda d: (d.k, 2 * d.k),
    "fusion_t": lambda d: (d.k, 2 * d.k),
    "predictor_s": lambda d: (2, d.k),
    "predictor_t": lambda d: (2, d.k),
    "adjacency": lambda d: (2 * d.k, 2 * d.k),
}


@dataclass
class ModelParams:
    """Every matrix of the model. Each constructor copies the matrices it is
    given into one contiguous float64 vector, flat, in mapping order;
    matrices then maps each name to a reshaped view of flat. Write into a
    view to change a parameter: a rebound name is rejected by register."""

    dims: ModelDims
    matrices: dict
    strict_causal_mask: bool = False
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.flat, self.matrices = dc.pack(self.matrices)

    @classmethod
    def init(cls, dims: ModelDims, seed: int, init_scale: float = 0.1,
             strict_causal_mask: bool = False) -> "ModelParams":
        """Uniform [-init_scale, init_scale] everywhere except the
        adjacency, which starts at zero (acyclic and penalty-finite)."""
        rng = np.random.default_rng(seed)
        matrices = {}
        for name, shape_fn in PARAM_SHAPES.items():
            shape = shape_fn(dims)
            if name == "adjacency":
                matrices[name] = np.zeros(shape)
            else:
                matrices[name] = rng.uniform(-init_scale, init_scale, size=shape)
        return cls(dims=dims, matrices=matrices,
                   strict_causal_mask=strict_causal_mask)

    def register(self, tape: dc.Tape) -> dict:
        return tape.params(self.flat, self.matrices)

    def copy(self) -> "ModelParams":
        return replace(self, matrices=self.matrices)

    def effective_adjacency_matrix(self) -> np.ndarray:
        return causal.effective_matrix(self.matrices["adjacency"], self.dims.k,
                                       self.strict_causal_mask)

    def save(self, path, meta: dict | None = None) -> None:
        meta = dict(meta or {})
        meta["strict_causal_mask"] = str(int(self.strict_causal_mask))
        matrixio.write_container(path, self.matrices, meta)

    @classmethod
    def load(cls, path) -> "ModelParams":
        """Read a checkpoint; ContainerError names every missing matrix,
        every matrix whose shape does not fit the dims the file implies,
        and every matrix holding a NaN or an infinity."""
        matrices, meta = matrixio.read_container(path)
        missing = [name for name in PARAM_SHAPES if name not in matrices]
        if missing:
            raise matrixio.ContainerError(
                f"{path}: missing matrices {', '.join(missing)}")
        k = matrices["user_map_t"].shape[0]
        dims = ModelDims(k=k,
                         n_users=matrices["user_att_t"].shape[1],
                         n_source_items=matrices["item_emb_s"].shape[1],
                         n_target_items=matrices["item_emb_t"].shape[1])
        wrong = [f"{name} {matrices[name].shape} (expected {shape_fn(dims)})"
                 for name, shape_fn in PARAM_SHAPES.items()
                 if matrices[name].shape != shape_fn(dims)]
        if wrong:
            raise matrixio.ContainerError(
                f"{path}: matrices of the wrong shape for k={k}: {', '.join(wrong)}")
        non_finite = [name for name in PARAM_SHAPES if not np.isfinite(matrices[name]).all()]
        if non_finite:
            raise matrixio.ContainerError(
                f"{path}: non-finite values in matrices {', '.join(non_finite)}")
        strict = meta.get("strict_causal_mask", "0")
        if strict not in ("0", "1"):
            raise matrixio.ContainerError(
                f"{path}: strict_causal_mask is {strict!r}, expected '0' or '1'")
        return cls(dims=dims, matrices=matrices, strict_causal_mask=strict == "1")


@dataclass
class LossConfig:
    """Term weights of the joint objective plus the ablation switch."""

    lambda_source: float = 1.0
    lambda_domain: float = 0.5
    lambda_causal: float = 1.0
    lambda_reg: float = 1e-5
    gamma_dag: float = 1.0
    gamma_direction: float = 1.0
    gamma_not_root: float = 0.1
    gamma_sparsity: float = 0.01
    grl_scale: float = 1.0
    ablation: str = "full"  # full | no_causal | no_source

    def __post_init__(self):
        if self.ablation not in ("full", "no_causal", "no_source"):
            raise ValueError(f"unknown ablation mode {self.ablation!r}")
        for f in fields(LossConfig):
            value = getattr(self, f.name)
            if f.name != "ablation" and not 0 <= value < np.inf:
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")

    @property
    def penalty(self) -> causal.PenaltyWeights:
        return causal.PenaltyWeights(self.gamma_dag, self.gamma_direction,
                                     self.gamma_not_root, self.gamma_sparsity)


@dataclass
class Batch:
    users: np.ndarray
    items: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.users)


@dataclass
class LossBreakdown:
    total: float
    interaction_target: float
    interaction_source: float
    domain: float
    causal: float
    regularizer: float
    causal_terms: causal.CausalLossTerms | None = None


def _suffix(domain: str) -> str:
    if domain not in DOMAIN_LABEL_UNIT:
        raise ValueError(f"unknown domain {domain!r}")
    return "_s" if domain == "source" else "_t"


def encode_users(nodes: dict, domain: str, users) -> tuple:
    """dc.encode's forward for one domain's users, recording no node:
    (u, shared @ u, E) for their attribute columns u."""
    suffix = _suffix(domain)
    _, att, z, e = dc._encode_forward(nodes["user_att" + suffix], users,
                                      nodes["shared_encoder"], nodes["user_map" + suffix])
    return att, z, e


def score_candidates(nodes: dict, users, items, a_pref: Node | None) -> np.ndarray:
    """Target-domain interaction probabilities for a block of candidate
    lists: users (L,) and items (L, n) give scores (L, n). The forward of
    dc.encode and dc.head's user side runs once per list; each fused
    preference is then repeated across the list's n items and gated by
    the item embeddings as in dc.head. Meant for a value-only tape; a_pref
    is the attribute->preference block (causal.preference_block), None
    scoring the no-causal variant."""
    items = np.asarray(items)
    n_lists, per_list = items.shape
    att, _, e = encode_users(nodes, "target", users)
    k, n_users = att.shape
    if n_users != n_lists:
        raise dc.ShapeError(f"score_candidates: {n_users} users for {n_lists} lists")
    _, _, fused = dc._fuse(att, e[2 * k:], None if a_pref is None else a_pref.value,
                           nodes["fusion_t"].value)
    fused = fused[:, np.repeat(np.arange(n_lists), per_list)]
    table = nodes["item_emb_t"]
    item = table.value[:, dc._column_indices("head", table, items.ravel())]
    p, _ = dc._gated_softmax("head", nodes["predictor_t"], fused, item)
    return p[1].reshape(n_lists, per_list)


def _domain_step(nodes: dict, domain: str, batch: Batch,
                 a_pref: Node | None) -> tuple[Node, Node]:
    """One domain's encode output E = [u_att; u_shared; u_specific] and
    its interaction loss; a_pref is as in score_candidates."""
    suffix = _suffix(domain)
    e, u_att = dc.encode(nodes["user_att" + suffix], batch.users,
                         nodes["shared_encoder"], nodes["user_map" + suffix])
    loss = dc.head(e, u_att, a_pref, nodes["fusion" + suffix], nodes["item_emb" + suffix],
                   batch.items, nodes["predictor" + suffix], batch.labels)
    return e, loss


def total_loss(tape: dc.Tape, params: ModelParams, target_batch: Batch,
               source_batch: Batch | None, config: LossConfig) -> tuple[Node, LossBreakdown]:
    """Joint objective over one step's batches.

    Target interaction loss, weighted source interaction loss, weighted
    adversarial domain loss over both domains' shared preferences, the
    weighted causal loss over attribute||shared samples from both domains,
    and the unsquared L2 norm of every registered parameter. Each domain
    records one dc.encode and one dc.head node, and the domain loss one
    dc.domain_bce node.
    """
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

    e_target, loss_target = _domain_step(nodes, "target", target_batch, a_pref)

    zero = tape.constant(0.0)
    loss_source = zero
    loss_domain = zero
    if source_batch is not None:
        e_source, loss_source = _domain_step(nodes, "source", source_batch, a_pref)
        loss_domain = dc.domain_bce(e_source, e_target, nodes["disc_h1"], nodes["disc_h2"],
                                    nodes["disc_out"], config.grl_scale)

    loss_causal = zero
    causal_terms = None
    if use_causal:
        # the samples [u_att; u_shared], target columns first
        if source_batch is None:
            h = dc.block(e_target, 0, 2 * k, 0, len(target_batch))
        else:
            h = dc.hconcat(e_target, e_source, 2 * k)
        loss_causal, causal_terms = causal.causal_loss(a_eff, h, k, config.penalty)

    reg = dc.l2_norm(*nodes.values())

    total = dc.weighted_sum(
        [loss_target, loss_source, loss_domain, loss_causal, reg],
        [1.0, config.lambda_source, config.lambda_domain, config.lambda_causal,
         config.lambda_reg])
    breakdown = LossBreakdown(
        total=float(total.value),
        interaction_target=float(loss_target.value),
        interaction_source=float(loss_source.value),
        domain=float(loss_domain.value),
        causal=float(loss_causal.value),
        regularizer=float(reg.value),
        causal_terms=causal_terms,
    )
    return total, breakdown
