"""Causal graph over latent user dimensions.

The graph has 2k nodes: indices 0..k-1 are latent-attribute dimensions,
k..2k-1 are preference dimensions. Entry (i, j) of the weighted adjacency
is the causal effect of node i on node j. A linear structural model
reconstructs each sample H = u_att || u_shared from its parents as A^T H;
the training objective adds an acyclicity penalty, a directional penalty
on the preference-to-attribute block, a not-a-root penalty on preference
columns, and global L1 sparsity.

The diagonal of the adjacency is structurally zero: a node is never its
own parent, and a plain (non-annealed) acyclicity penalty cannot drive
self-loops all the way to zero on its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Node

LOG_EPS = 1e-8  # guard inside the not-a-root logarithm


@dataclass
class PenaltyWeights:
    """Multipliers for the structural penalties of the causal loss; the
    joint model's defaults are model.LossConfig's gamma_* fields."""

    dag: float         # acyclicity
    direction: float   # preference -> attribute block L1
    not_root: float    # -log of preference-column L1 mass
    sparsity: float    # global L1


@dataclass
class CausalLossTerms:
    reconstruction: float
    dag: float
    direction: float
    not_root: float
    sparsity: float


@functools.lru_cache(maxsize=None)
def adjacency_mask(k: int, strict: bool = False) -> np.ndarray:
    """Trainable-entry mask: zero diagonal always; with strict=True only
    the attribute->preference block stays free (the prose-level reading of
    the directionality constraint, off by default). Built once per
    (k, strict) and shared, so the array is read-only."""
    d = 2 * k
    if strict:
        mask = np.zeros((d, d))
        mask[:k, k:] = 1.0
    else:
        mask = np.ones((d, d))
    np.fill_diagonal(mask, 0.0)
    mask.flags.writeable = False
    return mask


def effective_matrix(a: np.ndarray, k: int, strict: bool = False) -> np.ndarray:
    return np.asarray(a, dtype=np.float64) * adjacency_mask(k, strict)


def _require_adjacency(a: Node, k: int) -> None:
    if a.shape != (2 * k, 2 * k):
        raise dc.ShapeError(f"adjacency must be {2 * k}x{2 * k}, got {a.shape}")


def effective_adjacency(a: Node, k: int, strict: bool = False) -> Node:
    """Masked adjacency node used by every loss term and inference path."""
    _require_adjacency(a, k)
    mask = a.tape.constant(adjacency_mask(k, strict))
    return dc.mul(a, mask)


def causal_loss(a_eff: Node, h: Node, k: int,
                weights: PenaltyWeights) -> tuple[Node, CausalLossTerms]:
    """Total causal loss over a column batch of samples h (2k x N).

    a_eff must already be the masked adjacency (effective_adjacency).
    Returns the weighted-total node and the unweighted per-term values.
    """
    if h.value.ndim != 2 or h.shape[0] != 2 * k:
        raise dc.ShapeError(f"causal_loss: samples must be {2 * k} x N, got {h.shape}")
    if h.shape[1] == 0:
        raise ValueError("causal_loss: empty batch")

    rec = dc.reconstruction(a_eff, h)
    dag = dc.acyclicity_term(a_eff)
    total, (direction, not_root, sparsity) = dc.penalty_fold(
        rec, dag, a_eff, k, LOG_EPS,
        (weights.dag, weights.direction, weights.not_root, weights.sparsity))
    terms = CausalLossTerms(reconstruction=float(rec.value), dag=float(dag.value),
                            direction=direction, not_root=not_root, sparsity=sparsity)
    return total, terms


def preference_block(a_eff: Node, k: int) -> Node:
    """Attribute->preference block a_eff[:k, k:2k]. The causal-invariant
    preference of a k x B attribute batch is matmul_t(block, u_att): the
    attributes alone pushed through the learned edges into the preferences.
    """
    _require_adjacency(a_eff, k)
    return dc.block(a_eff, 0, k, k, 2 * k)


@dataclass
class GraphExtraction:
    edges: set = field(default_factory=set)
    threshold: float = 0.0
    precision: float | None = None
    recall: float | None = None
    f1: float | None = None


def extract_graph(a: np.ndarray, threshold: float,
                  reference_edges: set | None = None) -> GraphExtraction:
    """Edges with |weight| >= threshold, plus precision/recall/F1 over
    directed edges when a reference edge set is supplied."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    a = np.asarray(a, dtype=np.float64)
    rows, cols = np.nonzero(np.abs(a) >= threshold)
    edges = {(int(i), int(j)) for i, j in zip(rows, cols)}
    out = GraphExtraction(edges=edges, threshold=threshold)
    if reference_edges is not None:
        ref = {(int(i), int(j)) for i, j in reference_edges}
        hits = len(edges & ref)
        out.precision = hits / len(edges) if edges else 0.0
        out.recall = hits / len(ref) if ref else 0.0
        if out.precision + out.recall > 0:
            out.f1 = 2 * out.precision * out.recall / (out.precision + out.recall)
        else:
            out.f1 = 0.0
    return out


def export_edge_list(a: np.ndarray, threshold: float, path,
                     extra_meta: str = "") -> None:
    """Edge-list text file `i,j,weight` sorted by |weight| descending,
    with the acyclicity value and threshold recorded in the header."""
    a = np.asarray(a, dtype=np.float64)
    extraction = extract_graph(a, threshold)
    ranked = sorted(extraction.edges, key=lambda e: (-abs(a[e[0], e[1]]), e))
    header = f"# acyclicity={dc.acyclicity(a):.12g} threshold={threshold:.12g}"
    if extra_meta:
        header += f" {extra_meta}"
    lines = [header, "i,j,weight"]
    for i, j in ranked:
        lines.append(f"{i},{j},{a[i, j]:.12g}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
