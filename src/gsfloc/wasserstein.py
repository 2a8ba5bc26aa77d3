"""2-Wasserstein distance between GP populations and the confidence mapping.

W2^2(A, B) = |mu_A - mu_B|_F^2 + Tr(S_A + S_B) - 2 Tr((S_A^1/2 S_B S_A^1/2)^1/2)

With the stability mask enabled, each covariance is replaced by its
stability-weighted version and the mean term is weighted per grid point by
the geometric mean of the two populations' weights.

`w2_squared` also takes a stack of populations as A (one query instance at
every yaw sample, say): B's covariance is rooted once, and one batched
product and one batched `eigvalsh` give every member's distance to B, each
equal to its single-population call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ValidationError
from .gsf import GpPopulation, apply_stability_mask


@dataclass(frozen=True)
class SimilarityConfig:
    sigma_w: float  # scale of the w2^2 -> weight mapping
    accept_threshold: float  # per-vertex-pair w2^2 acceptance bound

    def __post_init__(self):
        if self.sigma_w <= 0:
            raise ValidationError(f"sigma_w must be > 0, got {self.sigma_w}")
        if self.accept_threshold <= 0:
            raise ValidationError(
                f"accept_threshold must be > 0, got {self.accept_threshold}"
            )


def psd_sqrt(S: np.ndarray, sym_tol: float = 1e-8) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, negatives clamped to 0."""
    S = np.asarray(S, dtype=np.float64)
    asym = np.abs(S - S.T).max() if S.size else 0.0
    if asym > sym_tol:
        raise ValidationError(f"matrix is not symmetric: max |S - S^T| = {asym:.3e}")
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    vals = np.maximum(vals, 0.0)
    out = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (out + out.T)


def _covariance(pop: GpPopulation, use_stability: bool) -> np.ndarray:
    if use_stability:
        return apply_stability_mask(pop.Sigma, pop.stability_weights)
    return pop.Sigma


def w2_squared(
    pop_a: GpPopulation, pop_b: GpPopulation, use_stability: bool = False
) -> float | np.ndarray:
    """Squared 2-Wasserstein distance between two populations on matching grids.

    `pop_a` may be a stack: mu (Y, G, D), Sigma (Y, G, G) and weights (Y, G)
    give a (Y,) array, member y's distance to `pop_b`; a single population
    gives a float. The trace term is symmetric in A and B, so only B's
    covariance is rooted, once for the whole stack:
    Tr((S_B^1/2 S_A S_B^1/2)^1/2), eigenvalues clamped at 0.
    """
    if pop_a.mu.shape[-2:] != pop_b.mu.shape or pop_a.Sigma.shape[-2:] != pop_b.Sigma.shape:
        raise ValidationError(
            f"population shapes differ: mu {pop_a.mu.shape} vs {pop_b.mu.shape}, "
            f"Sigma {pop_a.Sigma.shape} vs {pop_b.Sigma.shape}"
        )
    s_a, s_b = _covariance(pop_a, use_stability), _covariance(pop_b, use_stability)
    diff_sq = np.sum((pop_a.mu - pop_b.mu) ** 2, axis=-1)  # per grid point
    if use_stability:
        diff_sq = diff_sq * np.sqrt(pop_a.stability_weights * pop_b.stability_weights)
    sqrt_b = psd_sqrt(s_b)
    inner = sqrt_b @ s_a @ sqrt_b
    vals = np.linalg.eigvalsh(0.5 * (inner + np.swapaxes(inner, -1, -2)))
    cross = np.sum(np.sqrt(np.maximum(vals, 0.0)), axis=-1)
    mean_term = np.sum(diff_sq, axis=-1)
    trace_term = np.trace(s_a, axis1=-2, axis2=-1) + np.trace(s_b) - 2.0 * cross
    w2sq = np.maximum(mean_term + trace_term, 0.0)
    return float(w2sq) if w2sq.ndim == 0 else w2sq


def similarity_weight(w2sq: float | np.ndarray, cfg: SimilarityConfig) -> float | np.ndarray:
    """omega = exp(-w2^2 / (2 sigma_w^2)), elementwise; 1 at zero distance,
    decreasing. A float gives a float, an array an array of its shape."""
    w2sq = np.asarray(w2sq, dtype=np.float64)
    if (w2sq < 0).any():
        raise ValidationError(f"w2sq must be >= 0, got {w2sq.min()}")
    omega = np.exp(-w2sq / (2.0 * cfg.sigma_w**2))
    return float(omega) if omega.ndim == 0 else omega
