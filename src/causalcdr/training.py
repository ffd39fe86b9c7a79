"""Joint minibatch optimization of the full objective, ablation runners,
an adjacency-only fitter for structure-recovery experiments, and the
adversarial-convergence probe.

Determinism contract: everything random derives from the config seed, so
identical (config, data) reproduce identical parameter trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import causal, data, diffcore as dc, evaluation, model
from .data import SOURCE, TARGET

HISTORY_HEADER = "epoch,L_t,L_s,L_c,L_cau,reg,acyclicity,disc_acc,val_hr10,val_ndcg10"


class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig(model.LossConfig):
    k: int = 16
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 64
    n_neg_per_positive: int = 4
    optimizer: str = "adam"         # a key of OPTIMIZERS
    seed: int = 0
    patience: int = 10
    init_scale: float = 0.1
    strict_causal_mask: bool = False

    def __post_init__(self):
        super().__post_init__()
        for name in ("k", "epochs", "batch_size", "n_neg_per_positive", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("learning_rate", "init_scale"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{getattr(self, name)}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class EpochRecord:
    epoch: int
    loss_target: float
    loss_source: float
    loss_domain: float
    loss_causal: float
    regularizer: float
    acyclicity: float
    disc_accuracy: float
    val_hr10: float
    val_ndcg10: float

    def csv_row(self) -> str:
        values = (self.loss_target, self.loss_source, self.loss_domain,
                  self.loss_causal, self.regularizer, self.acyclicity,
                  self.disc_accuracy, self.val_hr10, self.val_ndcg10)
        return ",".join([str(self.epoch)] + [f"{v:.10g}" for v in values])


@dataclass
class TrainResult:
    params: model.ModelParams
    adjacency: np.ndarray | None
    history: list
    best_epoch: int
    # per epoch, {domain: training positives sampled without negatives
    # because their user knows every item}; kept out of every written file
    skipped_saturated_users: list = field(default_factory=list)


def history_to_csv(history, path, header_meta: str | None = None) -> None:
    lines = []
    if header_meta:
        lines.append(f"# {header_meta}")
    lines.append(HISTORY_HEADER)
    lines.extend(record.csv_row() for record in history)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# optimizers

# Entries per in-place pass of an optimizer: long enough to amortise the
# ufunc calls, short enough that the pass's operands stay in cache.
OPTIMIZER_CHUNK = 32768


def _pieces(x: np.ndarray, g: np.ndarray) -> list:
    """(entries, x[entries], g[entries]) for each OPTIMIZER_CHUNK-entry
    piece of the vector x; the views of x take the updates in place."""
    if x.ndim != 1 or g.shape != x.shape:
        raise ValueError(f"gradient of shape {g.shape} for a vector of shape {x.shape}")
    parts = [slice(lo, lo + OPTIMIZER_CHUNK) for lo in range(0, x.size, OPTIMIZER_CHUNK)]
    return [(part, x[part], g[part]) for part in parts]


class _InPlaceOptimizer:
    """Steps one flat vector in place, with scratch rows for temporaries."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._buffer = np.empty((2, 0))

    def _scratch(self, n: int) -> np.ndarray:
        if self._buffer.shape[1] < n:
            self._buffer = np.empty((2, n))
        return self._buffer[:, :n]


class Sgd(_InPlaceOptimizer):
    def step(self, x: np.ndarray, g: np.ndarray) -> None:
        for _, x, g in _pieces(x, g):
            s = self._scratch(x.size)[0]
            np.multiply(g, self.learning_rate, out=s)
            np.subtract(x, s, out=x)


class Adam(_InPlaceOptimizer):
    """Per-entry moment estimation with the usual decay pair and a
    small denominator guard. Every entry is updated in the arithmetic
    order b1*m + (1-b1)*g, b2*v + ((1-b2)*g)*g, x - lr*(m/c1) /
    (sqrt(v/c2) + eps)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, learning_rate: float):
        super().__init__(learning_rate)
        self.t = 0
        self.m = self.v = None  # allocated on the first step

    def step(self, x: np.ndarray, g: np.ndarray) -> None:
        pieces = _pieces(x, g)  # checks the shapes before any state changes
        if self.m is None:
            self.m, self.v = np.zeros_like(x), np.zeros_like(x)
        self.t += 1
        c1 = 1 - self.beta1 ** self.t
        c2 = 1 - self.beta2 ** self.t
        for part, x, g in pieces:
            m, v = self.m[part], self.v[part]
            s1, s2 = self._scratch(x.size)
            np.multiply(m, self.beta1, out=m)
            np.multiply(g, 1 - self.beta1, out=s1)
            np.add(m, s1, out=m)
            np.multiply(v, self.beta2, out=v)
            np.multiply(g, 1 - self.beta2, out=s1)
            np.multiply(s1, g, out=s1)
            np.add(v, s1, out=v)
            np.divide(m, c1, out=s1)
            np.multiply(s1, self.learning_rate, out=s1)
            np.divide(v, c2, out=s2)
            np.sqrt(s2, out=s2)
            np.add(s2, self.eps, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(x, s1, out=x)


OPTIMIZERS = {"adam": Adam, "sgd": Sgd}


# ---------------------------------------------------------------------------
# probes

@dataclass
class ProbeResult:
    accuracy: float
    tie_fraction: float


def discriminator_probe(params: model.ModelParams) -> ProbeResult:
    """Classify the shared preference of every user from each domain by
    discriminator argmax (ties to the source unit) and score against the
    true domain labels; the set is balanced by construction. Runs the
    forward of dc.domain_bce on both domains' encode outputs, source
    first, recording no node."""
    users = np.arange(params.dims.n_users)
    nodes = params.register(dc.Tape(grad=False))
    source, target = (model.encode_users(nodes, domain, users)[2]
                      for domain in (SOURCE, TARGET))
    lhat, _, _ = dc._layers("discriminator", source, target, nodes["disc_h1"],
                            nodes["disc_h2"], nodes["disc_out"])
    predicted = (lhat[1] > lhat[0]).astype(int)
    truth = np.concatenate([np.zeros(len(users), dtype=int),
                            np.ones(len(users), dtype=int)])
    return ProbeResult(accuracy=float(np.mean(predicted == truth)),
                       tie_fraction=float(np.mean(lhat[0] == lhat[1])))


# ---------------------------------------------------------------------------
# joint training

def _epoch_seed(config_seed: int, epoch: int, stream: int) -> int:
    ss = np.random.SeedSequence([config_seed, epoch, stream])
    return int(ss.generate_state(1)[0])


def _example_batches(examples: data.TrainingExamples, batch_size: int, rng):
    order = rng.permutation(len(examples))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield model.Batch(users=examples.users[idx], items=examples.items[idx],
                          labels=examples.labels[idx])


def train(dataset: data.CrossDomainDataset, split: data.SplitResult,
          config: TrainConfig) -> TrainResult:
    """Minibatch descent on the joint loss with per-epoch negative
    resampling, balanced source batches, validation-based early stopping,
    and a best-validation snapshot as the result."""
    if not split.train[TARGET]:
        raise TrainingError("target training set is empty")
    use_source = config.ablation != "no_source"
    if use_source and not split.train[SOURCE]:
        raise TrainingError("source training set is empty outside no_source")

    dims = model.ModelDims(k=config.k, n_users=dataset.n_users,
                           n_source_items=dataset.n_source_items,
                           n_target_items=dataset.n_target_items)
    params = model.ModelParams.init(dims, seed=config.seed,
                                    init_scale=config.init_scale,
                                    strict_causal_mask=config.strict_causal_mask)
    optimizer = OPTIMIZERS[config.optimizer](config.learning_rate)
    use_causal = config.ablation != "no_causal"
    has_validation = bool(split.val_candidates)

    # domain -> the RNG stream of its negative sampler
    streams = {TARGET: 0, SOURCE: 1} if use_source else {TARGET: 0}
    groups = {domain: data.group_train_positives(dataset, split, domain,
                                                 config.n_neg_per_positive)
              for domain in streams}
    # each step's tape zeroes and fills grad through the same views
    grad, grad_views = dc.pack(params.matrices)
    history: list = []
    skipped: list = []
    best = params.copy()
    best_epoch = 0
    best_hr = -1.0
    stale = 0

    for epoch in range(1, config.epochs + 1):
        examples = {domain: data.sample_train_negatives(
                        dataset, groups[domain], _epoch_seed(config.seed, epoch, stream))
                    for domain, stream in streams.items()}
        skipped.append({domain: examples[domain].skipped_saturated_users
                        for domain in streams})
        target_examples = examples[TARGET]
        source_examples = examples.get(SOURCE)
        rng = np.random.default_rng(_epoch_seed(config.seed, epoch, 2))

        sums = {"t": 0.0, "s": 0.0, "c": 0.0, "cau": 0.0, "reg": 0.0}
        n_seen = 0
        steps = 0
        for target_batch in _example_batches(target_examples,
                                             config.batch_size, rng):
            source_batch = None
            if use_source:
                # equal example counts per step, resampled with replacement
                picks = rng.integers(0, len(source_examples), len(target_batch))
                source_batch = model.Batch(users=source_examples.users[picks],
                                           items=source_examples.items[picks],
                                           labels=source_examples.labels[picks])
            tape = dc.Tape(grad_buffer=(grad, grad_views))
            try:
                total, breakdown = model.total_loss(tape, params, target_batch,
                                                    source_batch, config)
            except dc.NonFiniteError as exc:
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} step {steps}: {exc}") from exc
            tape.backward(total)
            optimizer.step(params.flat, grad)
            sums["t"] += breakdown.interaction_target
            sums["s"] += breakdown.interaction_source
            sums["c"] += breakdown.domain
            sums["cau"] += breakdown.causal * len(target_batch)
            sums["reg"] += breakdown.regularizer * len(target_batch)
            n_seen += len(target_batch)
            steps += 1

        adjacency = params.effective_adjacency_matrix() if use_causal else None
        val_hr10 = math.nan
        val_ndcg10 = math.nan
        if has_validation:
            val = evaluation.evaluate(params, adjacency, split,
                                      ks=(10,), part="validation")
            val_hr10 = val["HR@10"]
            val_ndcg10 = val["NDCG@10"]
        record = EpochRecord(
            epoch=epoch,
            loss_target=sums["t"] / n_seen,
            loss_source=sums["s"] / n_seen,
            loss_domain=sums["c"] / n_seen,
            loss_causal=sums["cau"] / n_seen,
            regularizer=sums["reg"] / n_seen,
            acyclicity=dc.acyclicity(adjacency) if adjacency is not None else 0.0,
            disc_accuracy=discriminator_probe(params).accuracy,
            val_hr10=val_hr10,
            val_ndcg10=val_ndcg10,
        )
        history.append(record)

        if has_validation:
            if val_hr10 > best_hr:
                best_hr = val_hr10
                best = params.copy()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
        else:
            best = params.copy()
            best_epoch = epoch

    adjacency = best.effective_adjacency_matrix() if use_causal else None
    return TrainResult(params=best, adjacency=adjacency, history=history,
                       best_epoch=best_epoch, skipped_saturated_users=skipped)


# ---------------------------------------------------------------------------
# adjacency-only structure fitting

def _structure_fit_penalty() -> causal.PenaltyWeights:
    """Recovery-oriented weighting for adjacency-only fitting: a heavy
    acyclicity weight suppresses mutually-canceling cycle networks and a
    moderate L1 keeps preference-to-preference shortcut edges under the
    extraction threshold without shrinking true edges out of it. The
    joint-model penalty defaults are unchanged."""
    return causal.PenaltyWeights(dag=500.0, direction=1.0, not_root=0.1,
                                 sparsity=0.05)


@dataclass
class AdjacencyFitConfig:
    learning_rate: float = 0.02
    steps: int = 3000
    penalty: causal.PenaltyWeights = field(default_factory=_structure_fit_penalty)
    optimizer: str = "adam"         # a key of OPTIMIZERS
    strict_mask: bool = False

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def fit_adjacency(samples: np.ndarray, k: int,
                  config: AdjacencyFitConfig | None = None) -> tuple:
    """Gradient descent of the causal loss over a fixed 2k x N sample
    batch, starting from the zero matrix. Returns the masked adjacency and
    a per-step (loss, acyclicity) history; TrainingError names the step
    whose loss is non-finite."""
    config = config or AdjacencyFitConfig()
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] != 2 * k:
        raise ValueError(f"samples must be {2 * k} x N, got {samples.shape}")
    flat, adjacency = dc.pack({"adjacency": np.zeros((2 * k, 2 * k))})
    grad, grad_views = dc.pack(adjacency)  # each step's tape zeroes and fills it
    optimizer = OPTIMIZERS[config.optimizer](config.learning_rate)
    history = []
    for step in range(config.steps):
        tape = dc.Tape(grad_buffer=(grad, grad_views))
        try:
            a = tape.params(flat, adjacency)["adjacency"]
            a_eff = causal.effective_adjacency(a, k, config.strict_mask)
            total, terms = causal.causal_loss(a_eff, tape.constant(samples), k,
                                              config.penalty)
        except dc.NonFiniteError as exc:
            raise TrainingError(f"non-finite loss at step {step}: {exc}") from exc
        tape.backward(total)
        optimizer.step(flat, grad)
        history.append((float(total.value), terms.dag))
    final = causal.effective_matrix(adjacency["adjacency"], k, config.strict_mask)
    return final, history
