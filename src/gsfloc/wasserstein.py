"""2-Wasserstein distance between GP populations and the confidence mapping.

W2^2(A, B) = |mu_A - mu_B|_F^2 + Tr(S_A + S_B) - 2 Tr((S_A^1/2 S_B S_A^1/2)^1/2)

With the stability mask enabled, each covariance is replaced by its
stability-weighted version and the mean term is weighted per grid point by
the geometric mean of the two populations' weights.

`w2_squared` takes one pair of populations, a stack as A against one B (one
query instance at every yaw sample, say), or a whole table of pairs: a stack
of A members, a stack of B members and two index arrays naming each pair.
Each member's covariance is masked once and each B member rooted once, in one
batched `eigh` (`psd_sqrt` takes a stack); one batched product and one
batched `eigvalsh` then cover every (pair, yaw) member. Every value equals
its own single-pair call bit for bit: the batched LAPACK and BLAS calls
work matrix by matrix, and every sum runs over the same axis as there.

`w2_lower_bound` bounds W2^2 from below with no eigen work:

    W2^2(A, B) >= mean term + (sqrt(Tr S_A) - sqrt(Tr S_B))^2

Proof in one line: the cross term is a nuclear norm, and a nuclear norm is at
most the product of the factors' Frobenius norms,
Tr((S_B^1/2 S_A S_B^1/2)^1/2) = ||S_A^1/2 S_B^1/2||_* <= ||S_A^1/2||_F
||S_B^1/2||_F = sqrt(Tr S_A Tr S_B). The bound is tight when S_A = c S_B.
The returned bound has a rounding slack taken off (see `w2_lower_bound`), so
it never exceeds the value `w2_squared` computes for the same member. A
member whose bound exceeds a value `w2_squared` computed for another member
of the same pair therefore cannot be that pair's minimum, bit for bit: this
is how `descriptors.pair_w2` scores only the yaw samples that can win.
The bound holds for positive semidefinite covariances, which is what
`gsf.grid_probe` gives (negative eigenvalues clamped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SIGMA_W_RANGE
from .core import ValidationError
from .gsf import GpPopulation, apply_stability_mask


@dataclass(frozen=True)
class SimilarityConfig:
    sigma_w: float  # scale of the w2^2 -> weight mapping
    accept_threshold: float  # per-vertex-pair w2^2 acceptance bound

    def __post_init__(self):
        lo, hi = SIGMA_W_RANGE
        if not lo <= self.sigma_w <= hi:
            raise ValidationError(f"sigma_w must lie in [{lo}, {hi}], got {self.sigma_w}")
        if self.accept_threshold <= 0:
            raise ValidationError(
                f"accept_threshold must be > 0, got {self.accept_threshold}"
            )


def psd_sqrt(S: np.ndarray, sym_tol: float = 1e-8) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition, negatives clamped to 0.

    `S` may be a stack (..., G, G): one batched `eigh` roots every member,
    each equal to its own call. A member more than `sym_tol` from symmetric
    is refused.
    """
    S = np.asarray(S, dtype=np.float64)
    St = np.swapaxes(S, -1, -2)
    asym = np.abs(S - St).max() if S.size else 0.0
    if asym > sym_tol:
        raise ValidationError(f"matrix is not symmetric: max |S - S^T| = {asym:.3e}")
    vals, vecs = np.linalg.eigh(0.5 * (S + St))
    vals = np.maximum(vals, 0.0)
    out = (vecs * np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _covariance(pop: GpPopulation, use_stability: bool) -> np.ndarray:
    if use_stability:
        return apply_stability_mask(pop.Sigma, pop.stability_weights)
    return pop.Sigma


def _check_shapes(pop_a: GpPopulation, pop_b: GpPopulation, b_ndim: int) -> None:
    if (pop_b.mu.ndim != b_ndim or pop_a.mu.shape[-2:] != pop_b.mu.shape[-2:]
            or pop_a.Sigma.shape[-2:] != pop_b.Sigma.shape[-2:]):
        raise ValidationError(
            f"population shapes differ: mu {pop_a.mu.shape} vs {pop_b.mu.shape}, "
            f"Sigma {pop_a.Sigma.shape} vs {pop_b.Sigma.shape}"
        )


def _lift(pop_a: GpPopulation) -> tuple:
    """An index that gives B's per-pair arrays one axis per yaw axis of A, to
    broadcast against it."""
    return (slice(None),) + (None,) * (pop_a.mu.ndim - 3)


def _mean_term(pop_a, pop_b, use_stability, ia, ib) -> np.ndarray:
    """|mu_A - mu_B|_F^2 of every (pair, yaw) member, each grid point weighted
    by the geometric mean of the two stability weights if the mask is on."""
    lift = _lift(pop_a)
    diff_sq = np.sum((pop_a.mu[ia] - pop_b.mu[ib][lift]) ** 2, axis=-1)  # per grid point
    if use_stability:
        diff_sq = diff_sq * np.sqrt(pop_a.stability_weights[ia]
                                    * pop_b.stability_weights[ib][lift])
    return np.sum(diff_sq, axis=-1)


def w2_squared(
    pop_a: GpPopulation,
    pop_b: GpPopulation,
    use_stability: bool = False,
    pairs: tuple[np.ndarray, np.ndarray] | None = None,
) -> float | np.ndarray:
    """Squared 2-Wasserstein distance between populations on matching grids.

    Without `pairs`, `pop_b` is one population and `pop_a` one population
    (a float back) or a stack: mu (Y, G, D), Sigma (Y, G, G) and weights
    (Y, G) give a (Y,) array, member y's distance to `pop_b`.

    With `pairs` = (ia, ib), two index arrays of length P, `pop_a` stacks A
    members (mu (A, G, D), or (A, Y, G, D) for yaw stacks) and `pop_b` B
    single ones (mu (B, G, D)); the (P,) or (P, Y) result holds member ia[p]
    of A against member ib[p] of B.

    The trace term is symmetric in A and B, so only B's covariances are
    rooted, each once: Tr((S_B^1/2 S_A S_B^1/2)^1/2), eigenvalues clamped at 0.
    """
    one = pairs is None
    _check_shapes(pop_a, pop_b, 2 if one else 3)
    if one:
        pop_a, pop_b = pop_a[None], pop_b[None]
        pairs = (np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp))
    ia, ib = (np.asarray(p, dtype=np.intp) for p in pairs)
    lift = _lift(pop_a)
    s_a, s_b = _covariance(pop_a, use_stability), _covariance(pop_b, use_stability)
    trace_a, trace_b = (np.trace(s, axis1=-2, axis2=-1) for s in (s_a, s_b))
    # per pair, as floats: the product below is written into this buffer, and
    # dropping the per-member stack first lowers the peak memory
    s_a = np.asarray(s_a, dtype=np.float64)[ia]
    sqrt_b = psd_sqrt(s_b)[ib][lift]
    inner = np.matmul(sqrt_b @ s_a, sqrt_b, out=s_a)
    inner += np.swapaxes(inner, -1, -2)  # in place: numpy buffers the overlapping operand
    inner *= 0.5
    vals = np.linalg.eigvalsh(inner)
    cross = np.sum(np.sqrt(np.maximum(vals, 0.0)), axis=-1)
    mean_term = _mean_term(pop_a, pop_b, use_stability, ia, ib)
    trace_term = trace_a[ia] + trace_b[ib][lift] - 2.0 * cross
    w2sq = np.maximum(mean_term + trace_term, 0.0)
    if not one:
        return w2sq
    return float(w2sq[0]) if w2sq.ndim == 1 else w2sq[0]


# the rounding slack of `w2_lower_bound`, per unit of member scale and of G^1.5
BOUND_SLACK = 4.0 * np.sqrt(np.finfo(np.float64).eps)


def _traces(pop: GpPopulation, use_stability: bool) -> np.ndarray:
    """Tr of each member's (masked) covariance, from its diagonal alone: the
    diagonal `apply_stability_mask` gives, through the same product."""
    diag = np.diagonal(pop.Sigma, axis1=-2, axis2=-1)
    if use_stability:
        sw = np.sqrt(pop.stability_weights)
        diag = diag * (sw * sw)
    return np.sum(diag, axis=-1)


def w2_lower_bound(
    pop_a: GpPopulation,
    pop_b: GpPopulation,
    use_stability: bool,
    pairs: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """A lower bound on the W2^2 `w2_squared` computes for each member of a
    table of pairs, with no eigen work.

    Arguments and the (P,) or (P, Y) result are those of `w2_squared` with
    `pairs`. Each member's bound is its mean term plus
    (sqrt(Tr S_A) - sqrt(Tr S_B))^2, with the same masked covariances and the
    same stability-weighted mean term as `w2_squared`, less a rounding slack
    of BOUND_SLACK G^1.5 (mean term + Tr S_A + Tr S_B).

    The slack is set against the member's own scale, not its value: W2^2 is
    a difference of terms of the size of the traces, so its rounding error
    scales with them. The largest error comes from the eigenvalue clamp at 0.
    The product S_B^1/2 S_A S_B^1/2 has exact eigenvalues >= 0, and the two
    G x G products and `eigvalsh` compute each within
    delta ~ 3 G eps Tr S_A Tr S_B. Clamping at 0 and then rooting turns that
    into up to sqrt(delta) per eigenvalue: an exact zero computed as +delta
    adds sqrt(delta) to the cross term. Over G eigenvalues the cross term
    then exceeds sqrt(Tr S_A Tr S_B) by at most
    G sqrt(3 G eps Tr S_A Tr S_B) <= 0.87 G^1.5 sqrt(eps) (Tr S_A + Tr S_B),
    and W2^2 falls short of the exact bound by twice that. The other errors
    (the traces, the root of S_B, the mean term) are O(G^2 eps) relative,
    far below. The slack is more than twice the sum.
    """
    _check_shapes(pop_a, pop_b, 3)
    ia, ib = (np.asarray(p, dtype=np.intp) for p in pairs)
    lift = _lift(pop_a)
    mean_term = _mean_term(pop_a, pop_b, use_stability, ia, ib)
    trace_a = _traces(pop_a, use_stability)[ia]
    trace_b = _traces(pop_b, use_stability)[ib][lift]
    gap = np.sqrt(np.maximum(trace_a, 0.0)) - np.sqrt(np.maximum(trace_b, 0.0))
    slack = BOUND_SLACK * pop_b.Sigma.shape[-1] ** 1.5 * (mean_term + trace_a + trace_b)
    return mean_term + gap * gap - slack


def similarity_weight(w2sq: float | np.ndarray, cfg: SimilarityConfig) -> float | np.ndarray:
    """omega = exp(-w2^2 / (2 sigma_w^2)), elementwise; 1 at zero distance,
    decreasing. A float gives a float, an array an array of its shape."""
    w2sq = np.asarray(w2sq, dtype=np.float64)
    if (w2sq < 0).any():
        raise ValidationError(f"w2sq must be >= 0, got {w2sq.min()}")
    omega = np.exp(-w2sq / (2.0 * cfg.sigma_w**2))
    return float(omega) if omega.ndim == 0 else omega
