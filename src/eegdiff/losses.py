"""Training objectives for both pipeline stages.

Stage 1 combines waveform reconstruction, alignment to per-class text
embeddings, and a symmetric-free InfoNCE term against paired image
embeddings.  Stage 2 regresses the velocity parameterization of a diffusion
process (Salimans & Ho 2022) with an SNR-power weighting: ``v_loss`` is the
one implementation, with per-sample timesteps.  Each stage's step loss
(``training.stage1_step_loss``, ``diffusion.stage2_step_loss``) builds its
objective from these terms; the trainer and the gradient audit both run it.
Guided sampling blends conditional and unconditional predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, as_tensor


@dataclass
class LossWeights:
    """Scalar weights for the stage-1 objective and its terms.

    ``recon``/``align``/``contrast`` weight the three stage-1 terms;
    ``sdsc`` scales the shape-overlap term inside the reconstruction loss;
    ``mse``/``cos`` weight the two parts of the text-alignment loss;
    ``temperature`` is the InfoNCE temperature.  ``RunConfig.validate``
    checks the run's weights.
    """

    recon: float = 1.0
    align: float = 1.0
    contrast: float = 0.5
    sdsc: float = 0.2
    mse: float = 1.0
    cos: float = 1.0
    temperature: float = 0.07


def sdsc_loss(target, recon) -> Tensor:
    """Soft dice-style overlap loss between two signals.

    1 - 2 * sum(sigmoid(t * r) * min(|t|, |r|)) / sum(|t| + |r|), computed
    over all elements.  An all-zero pair (denominator < 1e-8) returns 0 by
    convention.
    """
    target, recon = as_tensor(target), as_tensor(recon)
    if target.shape != recon.shape:
        raise ShapeError(f"sdsc_loss shape mismatch: {target.shape} vs {recon.shape}")
    abs_t = ad.abs_(target)
    abs_r = ad.abs_(recon)
    denom = ad.sum_(ad.add(abs_t, abs_r))
    if float(denom.data) < 1e-8:
        return Tensor(0.0)
    overlap = ad.sum_(ad.mul(ad.sigmoid(ad.mul(target, recon)), ad.minimum(abs_t, abs_r)))
    return ad.sub(1.0, ad.div(ad.mul(2.0, overlap), denom))


def mse_loss(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"mse shape mismatch: {a.shape} vs {b.shape}")
    diff = ad.sub(a, b)
    return ad.mean(ad.mul(diff, diff))


def recon_loss(target, recon, weights: LossWeights) -> Tensor:
    """MSE plus weighted shape overlap."""
    return ad.add(mse_loss(target, recon), ad.mul(weights.sdsc, sdsc_loss(target, recon)))


def text_align_loss(latent, text_emb, weights: LossWeights) -> Tensor:
    """Weighted MSE + (1 - cosine) between latent rows and text rows.

    Cosine is computed per row over the last axis and averaged over all
    leading axes.
    """
    latent, text_emb = as_tensor(latent), as_tensor(text_emb)
    if latent.shape != text_emb.shape:
        raise ShapeError(f"text_align shape mismatch: {latent.shape} vs {text_emb.shape}")
    cos = ad.mean(ad.cosine_similarity(latent, text_emb))
    return ad.add(
        ad.mul(weights.mse, mse_loss(latent, text_emb)),
        ad.mul(weights.cos, ad.sub(1.0, cos)),
    )


def contrastive_loss(pooled, image_emb, temperature: float) -> Tensor:
    """InfoNCE over cosine similarities with positives on the diagonal.

    ``pooled`` and ``image_emb`` are (N, D); row i of each side is a
    positive pair.  Uniform similarities give exactly log N; ``temperature``
    is positive.
    """
    pooled, image_emb = as_tensor(pooled), as_tensor(image_emb)
    if pooled.ndim != 2 or pooled.shape != image_emb.shape:
        raise ShapeError(
            f"contrastive_loss expects matching (N, D) inputs, got {pooled.shape} vs {image_emb.shape}"
        )
    n, d = pooled.shape
    if n < 1:
        raise ShapeError("contrastive_loss needs at least one pair")
    sims = ad.cosine_similarity(pooled.reshape(n, 1, d), image_emb.reshape(1, n, d))
    logits = ad.mul(sims, 1.0 / float(temperature))
    # detached row max keeps exp in range without entering the gradient
    row_max = Tensor(logits.data.max(axis=1, keepdims=True))
    lse = ad.add(ad.log(ad.sum_(ad.exp(ad.sub(logits, row_max)), axis=1, keepdims=True)), row_max)
    eye = Tensor(np.eye(n))
    positives = ad.sum_(ad.mul(logits, eye), axis=1, keepdims=True)
    return ad.mean(ad.sub(lse, positives))


def stage1_loss_terms(target, recon, latent, text_emb, pooled, image_emb, weights: LossWeights):
    """Weighted stage-1 objective; returns (total, per-term tensors)."""
    terms = {
        "recon": recon_loss(target, recon, weights),
        "align": text_align_loss(latent, text_emb, weights),
        "contrast": contrastive_loss(pooled, image_emb, weights.temperature),
    }
    total = ad.add(
        ad.add(ad.mul(weights.recon, terms["recon"]), ad.mul(weights.align, terms["align"])),
        ad.mul(weights.contrast, terms["contrast"]),
    )
    return total, terms


# -- diffusion objectives ---------------------------------------------------

SNR_FLOOR = 1e-8
SNR_CEIL = 1e8


def snr_weight(schedule, t, gamma: float):
    """SNR(t)^-gamma with the signal-to-noise ratio clamped to [1e-8, 1e8].

    ``t`` is a timestep (returns a float) or an array of them (returns an
    array of the same shape).
    """
    snr = np.clip(schedule.snr(np.atleast_1d(t)), SNR_FLOOR, SNR_CEIL)
    weight = snr ** (-gamma)
    return weight.reshape(np.shape(t)) if np.ndim(t) else float(weight[0])


def v_target(x0, noise, t, schedule) -> Tensor:
    """Velocity target alpha_t * noise - sigma_t * x0; ``t`` is a timestep or one per sample."""
    x0, noise = as_tensor(x0), as_tensor(noise)
    if x0.shape != noise.shape:
        raise ShapeError(f"v_target shape mismatch: {x0.shape} vs {noise.shape}")
    alpha, sigma = schedule.coefficients(t, x0.shape)
    return ad.sub(ad.mul(alpha, noise), ad.mul(sigma, x0))


def v_loss(x0, noise, t, condition, model, schedule, gamma: float = 0.5) -> Tensor:
    """The stage-2 objective mean(w_b * (v_target - v_pred)^2).

    ``t`` is one timestep or one per sample, shape (B,); ``w_b`` is
    ``snr_weight`` at sample b's timestep.  ``model`` is called as
    ``model(x_t, t, condition)`` with x_t = alpha_t * x0 + sigma_t * noise.
    """
    x0, noise = as_tensor(x0), as_tensor(noise)
    alpha, sigma = schedule.coefficients(t, x0.shape)
    x_t = ad.add(ad.mul(alpha, x0), ad.mul(sigma, noise))
    target = v_target(x0, noise, t, schedule)
    pred = model(x_t, t, condition)
    if pred.shape != target.shape:
        raise ShapeError(f"model output shape {pred.shape} != target {target.shape}")
    weights = np.reshape(snr_weight(schedule, t, gamma), alpha.shape)
    diff = ad.sub(target, pred)
    return ad.mean(ad.mul(weights, ad.mul(diff, diff)))


def cfg_combine(v_uncond, v_cond, scale: float) -> np.ndarray:
    """Guided velocity v_u + scale * (v_c - v_u) on plain arrays.

    scale 1 returns an exact copy of ``v_cond``.
    """
    v_uncond = np.asarray(v_uncond, dtype=np.float64)
    v_cond = np.asarray(v_cond, dtype=np.float64)
    if v_uncond.shape != v_cond.shape:
        raise ShapeError(f"cfg_combine shape mismatch: {v_uncond.shape} vs {v_cond.shape}")
    scale = float(scale)
    if scale == 1.0:
        return v_cond.copy()
    return v_uncond + scale * (v_cond - v_uncond)
