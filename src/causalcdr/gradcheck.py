"""Finite-difference validation of the full joint loss on a toy instance.

Blocks feeding the discriminator through the gradient-reversal node are
checked against a compensated loss value: the reversal keeps the forward
value intact but replaces the domain-loss contribution of those blocks by
-grl_scale times itself, so their finite-difference target is

    L_eff = L - (1 + grl_scale) * lambda_domain * L_domain.

Everything downstream of the reversal (and every other path) is checked
against the plain loss value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc, model

# blocks whose only route into the domain loss passes the reversal node
REVERSED_BLOCKS = ("shared_encoder", "user_att_s", "user_att_t")

DEFAULT_THRESHOLD = 1e-4


@dataclass
class GradCheckReport:
    per_block: dict
    threshold: float
    grl_scale: float

    @property
    def max_relative_error(self) -> float:
        return max(self.per_block.values())

    @property
    def passed(self) -> bool:
        return self.max_relative_error < self.threshold

    def failing_blocks(self) -> list:
        return sorted(name for name, err in self.per_block.items()
                      if err >= self.threshold)


KINK_MARGIN = 1e-3  # ReLU pre-activations must clear this distance from 0

# the reg weight is raised for the check so entries reachable only through
# the parameter-norm term (dead hidden units) carry gradients well above
# the finite-difference noise floor; the loss form is unchanged
CHECK_LAMBDA_REG = 1e-3


def _min_relu_preactivation(params: model.ModelParams, target: model.Batch,
                            source: model.Batch) -> float:
    """Smallest |pre-activation| over every ReLU site the toy loss hits,
    read from the forward helpers of dc.encode and dc.domain_bce; a
    central difference that crosses a kink would corrupt the check."""
    nodes = params.register(dc.Tape(grad=False))
    encoded = [model.encode_users(nodes, domain, batch.users)
               for domain, batch in (("source", source), ("target", target))]
    closest = min(np.abs(z).min() for _, z, _ in encoded)
    _, hidden, _ = dc._layers("domain_bce", encoded[0][2], encoded[1][2], nodes["disc_h1"],
                              nodes["disc_h2"], nodes["disc_out"])
    for pre in hidden:
        nonzero = np.abs(pre[pre != 0])
        if nonzero.size:
            closest = min(closest, nonzero.min())
    return float(closest)


def toy_instance(seed: int):
    """A tiny model whose batches touch every embedding column, so no
    parameter is left with a noise-level regularizer-only gradient, and
    whose ReLU pre-activations all clear KINK_MARGIN (resampling the
    initialization deterministically until they do)."""
    k, n_users, n_items, batch_size = 4, 6, 8, 8
    dims = model.ModelDims(k=k, n_users=n_users, n_source_items=n_items,
                           n_target_items=n_items)

    def batch(n_items_domain):
        users = np.arange(batch_size) % n_users
        items = np.arange(batch_size) % n_items_domain
        labels = (np.arange(batch_size) % 2).astype(float)
        return model.Batch(users=users, items=items, labels=labels)

    target = batch(dims.n_target_items)
    source = batch(dims.n_source_items)

    for attempt in range(1000):
        sub_seed = seed * 1000 + attempt
        params = model.ModelParams.init(dims, seed=sub_seed, init_scale=0.5)
        rng = np.random.default_rng(sub_seed)
        params.matrices["adjacency"][...] = (
            rng.uniform(0.05, 0.2, size=(2 * k, 2 * k))
            * rng.choice([-1.0, 1.0], size=(2 * k, 2 * k)))
        margin = _min_relu_preactivation(params, target, source)
        if margin > KINK_MARGIN:
            return params, target, source
    raise RuntimeError("could not find a kink-free toy initialization")


def run_gradient_check(seed: int = 0,
                       grl_scale: float = model.LossConfig.grl_scale,
                       step: float = 1e-4,
                       threshold: float = DEFAULT_THRESHOLD,
                       corrupt_block: str | None = None) -> GradCheckReport:
    """Check every parameter block of the full loss on the toy instance.

    corrupt_block deliberately shifts one block's analytic gradient; the
    report then fails naming that block (test hook for the fail path).
    """
    if corrupt_block is not None and corrupt_block not in model.PARAM_SHAPES:
        raise ValueError(f"unknown parameter block {corrupt_block!r}")
    params, target, source = toy_instance(seed)
    config = model.LossConfig(grl_scale=grl_scale, lambda_reg=CHECK_LAMBDA_REG)

    tape = dc.Tape()
    total, _ = model.total_loss(tape, params, target, source, config)
    tape.backward(total)
    grads = tape.grads()
    if corrupt_block is not None:
        grads[corrupt_block] = grads[corrupt_block] + 0.1

    def breakdown(values) -> model.LossBreakdown:
        p = params.copy()
        for name, v in values.items():
            p.matrices[name][...] = v
        return model.total_loss(dc.Tape(grad=False), p, target, source, config)[1]

    def loss_compensated(values):
        b = breakdown(values)
        return b.total - (1.0 + grl_scale) * config.lambda_domain * b.domain

    plain_blocks = {name: matrix for name, matrix in params.matrices.items()
                    if name not in REVERSED_BLOCKS}
    reversed_blocks = {name: params.matrices[name] for name in REVERSED_BLOCKS}

    per_block = dc.finite_diff_details(lambda values: breakdown(values).total,
                                       plain_blocks, grads, step=step)
    per_block.update(dc.finite_diff_details(loss_compensated, reversed_blocks, grads,
                                            step=step))
    return GradCheckReport(per_block=per_block, threshold=threshold,
                           grl_scale=grl_scale)
