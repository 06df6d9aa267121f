"""Retrieval, distribution, and agreement metrics plus embedding export.

Everything here is pure numpy over immutable inputs; cosine similarities use
the same epsilon-guarded norms as the training losses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .signalio import write_csv

EPS = 1e-12


class EvalError(ValueError):
    """Invalid metric inputs."""


def _cos_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    return (a @ b.T) / ((na + EPS) * (nb.T + EPS))


def topk_retrieval(queries, gallery, labels, ks) -> dict[str, float]:
    """Top-k retrieval hit rates of paired queries over the whole gallery.

    Query i is paired with gallery item i, whose class is ``labels[i]``.
    Returns ``label_top{k}`` (any retrieved item with the query's class
    counts) for each k in ``ks``, then ``image_top{k}`` (the paired item
    itself must appear in the top k): the fraction of queries with a hit.
    Ties in similarity break toward the smaller gallery index.
    """
    queries = np.asarray(queries, dtype=np.float64)
    gallery = np.asarray(gallery, dtype=np.float64)
    labels = np.asarray(labels)
    if gallery.ndim != 2 or len(labels) != len(gallery):
        raise EvalError("the gallery needs (N, D) embeddings and N labels")
    if queries.ndim != 2 or queries.shape[0] != gallery.shape[0]:
        raise EvalError(f"queries {queries.shape} must pair 1:1 with the gallery {gallery.shape}")
    n = queries.shape[0]
    for k in ks:
        if not (1 <= k <= n):
            raise EvalError(f"k={k} outside [1, {n}] for a gallery of {n}")

    # A stable sort of -similarity keeps tied items in ascending index order,
    # so each k's top k is a prefix of the top max(ks).
    top = np.argsort(-_cos_matrix(queries, gallery), axis=1, kind="stable")[:, : max(ks)]
    hits = {"label": labels[top] == labels[:, None], "image": top == np.arange(n)[:, None]}
    return {f"{mode}_top{k}": int(hits[mode][:, :k].any(axis=1).sum()) / n for mode in hits for k in ks}


# -- distribution distance ----------------------------------------------------


@dataclass
class GaussianStats:
    mean: np.ndarray  # (D,)
    cov: np.ndarray  # (D, D)


def fit_gaussian(x) -> GaussianStats:
    """Sample mean and covariance (ddof=1), covariance exactly symmetrized."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise EvalError(f"fit_gaussian needs at least 2 rows of (N, D), got {x.shape}")
    # Huge finite rows overflow the covariance; `frechet_distance` rejects
    # the non-finite result with an `EvalError`, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        cov = np.atleast_2d(np.cov(x, rowvar=False))
        return GaussianStats(mean=mean, cov=(cov + cov.T) / 2.0)


def _checked_cov(cov: np.ndarray, side: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise EvalError(f"{side} covariance must be square, got {cov.shape}")
    if not np.isfinite(cov).all():
        raise EvalError(f"{side} covariance has non-finite entries")
    if np.abs(cov - cov.T).max() > 1e-8:
        raise EvalError(f"{side} covariance is not symmetric within 1e-8")
    return (cov + cov.T) / 2.0


def _clamped_eigs(eigs: np.ndarray, what: str) -> np.ndarray:
    scale = max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if eigs.min(initial=0.0) < -1e-10 * scale:
        raise EvalError(f"{what} has negative eigenvalues beyond tolerance")
    return np.maximum(eigs, 0.0)


def _psd_sqrt(cov: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(cov)
    eigs = _clamped_eigs(eigs, "covariance")
    return (vecs * np.sqrt(eigs)) @ vecs.T


def frechet_distance(a: GaussianStats, b: GaussianStats) -> float:
    """||mu_a - mu_b||^2 + tr(Ca + Cb - 2 (Ca^1/2 Cb Ca^1/2)^1/2).

    The cross term goes through a symmetric eigendecomposition; tiny negative
    eigenvalues clamp to zero, genuinely non-PSD inputs raise.
    """
    mean_a, mean_b = np.asarray(a.mean, dtype=np.float64), np.asarray(b.mean, dtype=np.float64)
    if mean_a.shape != mean_b.shape:
        raise EvalError(f"mean shapes differ: {mean_a.shape} vs {mean_b.shape}")
    cov_a = _checked_cov(a.cov, "first")
    cov_b = _checked_cov(b.cov, "second")
    if cov_a.shape != cov_b.shape or cov_a.shape[0] != mean_a.shape[0]:
        raise EvalError("mean/covariance dimensions disagree")

    root_a = _psd_sqrt(cov_a)
    product = root_a @ cov_b @ root_a
    product = (product + product.T) / 2.0
    eigs = _clamped_eigs(np.linalg.eigvalsh(product), "cross-covariance product")
    diff = mean_a - mean_b
    value = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.sqrt(eigs).sum())
    return max(value, 0.0)


def class_agreement(generated, labels, anchors) -> float:
    """Fraction of samples whose nearest anchor (cosine) matches the label."""
    generated = np.asarray(generated, dtype=np.float64)
    labels = np.asarray(labels)
    anchors = np.asarray(anchors, dtype=np.float64)
    if len(generated) != len(labels):
        raise EvalError("generated and labels must have equal length")
    if len(generated) == 0:
        raise EvalError("class_agreement needs at least one sample")
    if len(anchors) == 0:
        raise EvalError("class_agreement needs at least one anchor")
    flat = generated.reshape(len(generated), -1)
    flat_anchors = anchors.reshape(len(anchors), -1)
    if flat.shape[1] != flat_anchors.shape[1]:
        raise EvalError(
            f"sample size {flat.shape[1]} does not match anchor size {flat_anchors.shape[1]}"
        )
    # Non-finite rows, or norms so large that their product overflows, give
    # cosines of 0 or NaN and so an arbitrary nearest anchor: reject them.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.linalg.norm(flat, axis=1).max() * np.linalg.norm(flat_anchors, axis=1).max()
        cos = _cos_matrix(flat, flat_anchors)
    if not (np.isfinite(scale) and np.isfinite(cos).all()):
        raise EvalError("class_agreement needs finite samples and anchors whose norms do not overflow")
    return float(np.mean(np.argmax(cos, axis=1) == labels))


def export_embeddings(embeddings, labels, path) -> Path:
    """Write ``id,label,e0..e{D-1}`` CSV with round-trippable float text."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if embeddings.ndim != 2 or len(labels) != len(embeddings):
        raise EvalError("export needs (N, D) embeddings and N labels")
    header = ["id", "label"] + [f"e{j}" for j in range(embeddings.shape[1])]
    rows = [[i, int(label)] + [f"{v:.17g}" for v in row] for i, (row, label) in enumerate(zip(embeddings, labels))]
    return write_csv(path, header, rows)
