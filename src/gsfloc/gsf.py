"""Gaussian semantic field layer.

A field is an exact GP over a class-proportional sparsification of a local
neighborhood, mapping local 3D position to semantic logits (zero-mean prior,
Matern 3/2 kernel, independent output channels sharing one kernel matrix).
Grid probing evaluates the field on a uniform 2D grid to produce a finite
multivariate Gaussian population for downstream comparison.

Probing takes one yaw or several. Several yaws give a stacked population, every
array with a leading yaw axis, from one kernel matrix, one triangular solve
against the cached Cholesky factor (W = L^-1 k(X,Q), Sigma = k(Q,Q) - W^T W)
and one batched PSD check; each member equals its own single-yaw probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.spatial.distance import cdist

from .core import GsflocError, LabelTaxonomy, ValidationError, rot_z

JITTER_START = 1e-8
JITTER_MAX = 1e-2


class FitError(GsflocError):
    """Kernel matrix factorization failed even after jitter escalation."""


@dataclass(frozen=True)
class GpHyperParams:
    kappa: float = 2.0  # length scale, meters
    sigma_y: float = 0.1  # observation noise std

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValidationError(f"kappa must be > 0, got {self.kappa}")
        if self.sigma_y < 0:
            raise ValidationError(f"sigma_y must be >= 0, got {self.sigma_y}")


@dataclass
class GaussianSemanticField:
    """Fitted sparse GP over local coordinates. Immutable after fit."""

    X: np.ndarray  # (M,3) local coordinates
    Y: np.ndarray  # (M,D) logits
    hyper: GpHyperParams
    factor: tuple  # cached cho_factor of K = k(X,X) + sigma_y^2 I (+ jitter)
    alpha: np.ndarray  # (M,D) cached K^-1 Y
    jitter: float = 0.0  # extra diagonal needed to factorize; 0 when clean

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.Y.shape[1]


@dataclass
class GpPopulation:
    """Multivariate Gaussian obtained by probing a field on a fixed grid.

    A stacked population (one field probed at Y yaws) has a leading (Y,) axis
    on every array.
    """

    grid: np.ndarray  # (G,3) probe locations, local frame
    mu: np.ndarray  # (G,D) predicted means
    Sigma: np.ndarray  # (G,G) predictive covariance, PSD (negatives clamped)
    stability_weights: np.ndarray  # (G,) in (0,1]


def semantic_sparsify(X, labels, budget: int, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class-proportional downsampling to roughly `budget` points.

    Each class keeps round((n_c / M) * budget) points, drawn uniformly
    without replacement. Returns (X', labels', original indices ascending).
    """
    X = np.asarray(X, dtype=np.float64).reshape(-1, 3)
    labels = np.asarray(labels).reshape(-1)
    m = X.shape[0]
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if m < 1:
        raise ValidationError("cannot sparsify an empty point set")
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    for c in np.unique(labels):  # ascending class order: deterministic draws
        idx = np.nonzero(labels == c)[0]
        n_c = int(np.rint(idx.size / m * budget))
        n_c = min(n_c, idx.size)
        if n_c == 0:
            continue
        keep.append(rng.choice(idx, size=n_c, replace=False))
    indices = np.sort(np.concatenate(keep)) if keep else np.zeros(0, dtype=np.int64)
    return X[indices], labels[indices], indices


def matern32(a, b, kappa: float) -> float:
    """Matern 3/2 kernel: (1 + s) exp(-s) with s = sqrt(3)*|a-b|/kappa."""
    if kappa <= 0:
        raise ValidationError(f"kappa must be > 0, got {kappa}")
    s = np.sqrt(3.0) * np.linalg.norm(np.asarray(a, dtype=np.float64) - b) / kappa
    return float((1.0 + s) * np.exp(-s))


def matern32_matrix(A: np.ndarray, B: np.ndarray, kappa: float) -> np.ndarray:
    s = np.sqrt(3.0) / kappa * cdist(A, B)
    return (1.0 + s) * np.exp(-s)


def _factorize(K: np.ndarray) -> tuple[tuple, float]:
    """Cholesky with jitter escalation; returns (factor, jitter used)."""
    try:
        return cho_factor(K, lower=True), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = JITTER_START
    eye = np.eye(K.shape[0])
    while jitter <= JITTER_MAX:
        try:
            return cho_factor(K + jitter * eye, lower=True), jitter
        except np.linalg.LinAlgError:
            jitter *= 2.0
    raise FitError(f"kernel factorization failed up to jitter {jitter / 2.0:.3e}")


def fit_gsf(
    X_local,
    Y_logits,
    labels,
    hyper: GpHyperParams,
    budget: int,
    seed,
) -> GaussianSemanticField:
    """Sparsify to `budget` points, then fit an exact GP on what is kept:
    factorize K = k(X,X) + sigma_y^2 I and cache K^-1 Y."""
    X_local = np.asarray(X_local, dtype=np.float64).reshape(-1, 3)
    Y_logits = np.asarray(Y_logits, dtype=np.float64)
    if Y_logits.ndim != 2 or Y_logits.shape[0] != X_local.shape[0]:
        raise ValidationError(
            f"logits shape {Y_logits.shape} does not match {X_local.shape[0]} points"
        )
    if X_local.shape[0] < 1:
        raise FitError("cannot fit a field on an empty neighborhood")
    if not np.all(np.isfinite(Y_logits)):
        raise ValidationError("logits contain non-finite values")

    X, _, idx = semantic_sparsify(X_local, labels, budget, seed)
    if idx.size == 0:
        raise FitError("sparsification produced 0 points (budget too small for class mix)")
    Y = Y_logits[idx]
    K = matern32_matrix(X, X, hyper.kappa)
    K[np.diag_indices_from(K)] += hyper.sigma_y**2
    factor, jitter = _factorize(K)
    alpha = cho_solve(factor, Y)
    return GaussianSemanticField(X, Y, hyper, factor, alpha, jitter)


def gsf_predict(field: GaussianSemanticField, Q) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance at query locations Q.

    Q (G,3) gives mu (G,D) and Sigma (G,G); a stack Q (Y,G,3) gives mu (Y,G,D)
    and Sigma (Y,G,G), member y predicted at Q[y]. All points share one kernel
    matrix against X and one triangular solve W = L^-1 k(X,Q).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    Qs = Q.reshape(-1, Q.shape[-2], 3)  # (Y,G,3); a single set is a stack of one
    n_y, g = Qs.shape[:2]
    kqx = matern32_matrix(Qs.reshape(-1, 3), field.X, field.hyper.kappa)
    mu = (kqx @ field.alpha).reshape(n_y, g, -1)
    L, lower = field.factor
    W = solve_triangular(L, kqx.T, lower=lower, check_finite=False).reshape(field.m, n_y, g)
    W = W.transpose(1, 0, 2)  # (Y,M,G)
    kqq = np.stack([matern32_matrix(q, q, field.hyper.kappa) for q in Qs])
    Sigma = kqq - np.swapaxes(W, 1, 2) @ W
    Sigma = 0.5 * (Sigma + np.swapaxes(Sigma, 1, 2))
    if Q.ndim == 2:
        return mu[0], Sigma[0]
    return mu, Sigma


def _clamp_psd(Sigma: np.ndarray) -> np.ndarray:
    """Sigma (..., G, G) with each member's negative eigenvalues clamped to 0.

    One batched Cholesky that succeeds shows every member positive definite,
    and the stack comes back as is; otherwise each member whose smallest
    eigenvalue is negative is rebuilt from its clamped eigendecomposition.
    """
    try:
        np.linalg.cholesky(Sigma)
        return Sigma
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(Sigma)
    neg = vals[..., 0] < 0.0
    if not neg.any():
        return Sigma
    vecs = vecs[neg]
    out = (vecs * np.maximum(vals[neg], 0.0)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    Sigma = Sigma.copy()
    Sigma[neg] = 0.5 * (out + np.swapaxes(out, -1, -2))
    return Sigma


# grid points closer than this (meters) are taken to be the same point
PERMUTATION_TOL = 1e-9


def probe_grid(
    centroid_local=(0.0, 0.0, 0.0),
    delta_x: float = 2.5,
    delta_y: float = 2.5,
    n_x: int = 5,
    n_y: int = 5,
    z_mode="local-zero",
    yaw: float | np.ndarray = 0.0,
) -> np.ndarray:
    """(n_x * n_y, 3) probe locations of a uniform grid centered at `centroid_local`.

    The grid's bounding box is symmetric about the centroid; flattening is
    row-major over (i, j) with g = i*n_y + j. `z_mode` is "local-zero"
    (probe at the centroid height, local z = 0) or a numeric z offset.
    `yaw` rotates the grid about the local z axis; a 1-D array of Y yaws
    gives the (Y, n_x * n_y, 3) stack of those grids.
    """
    if n_x < 1 or n_y < 1:
        raise ValidationError("grid dimensions must be >= 1")
    cx, cy, cz = np.asarray(centroid_local, dtype=np.float64).reshape(3)
    if z_mode == "local-zero":
        z_off = 0.0
    else:
        z_off = float(z_mode)
    xs = (np.arange(n_x) - (n_x - 1) / 2.0) * delta_x
    ys = (np.arange(n_y) - (n_y - 1) / 2.0) * delta_y
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    local = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    yaws = np.asarray(yaw, dtype=np.float64)
    rot = np.stack([rot_z(y) for y in yaws.reshape(-1)])  # (Y,3,3)
    grids = local @ np.swapaxes(rot, 1, 2) + np.array([cx, cy, cz + z_off])
    return grids if yaws.ndim else grids[0]


def grid_probe(
    field: GaussianSemanticField,
    taxonomy: LabelTaxonomy,
    centroid_local=(0.0, 0.0, 0.0),
    delta_x: float = 2.5,
    delta_y: float = 2.5,
    n_x: int = 5,
    n_y: int = 5,
    z_mode="local-zero",
    yaw: float | np.ndarray = 0.0,
) -> GpPopulation:
    """Probe the field on the `probe_grid` of the same arguments.

    A float yaw gives one population; a sequence of yaws gives a stacked one
    (grid (Y,G,3), mu (Y,G,D), Sigma (Y,G,G), weights (Y,G)) from one
    `gsf_predict`, member y equal to the probe at yaw[y] alone.
    """
    grid = probe_grid(centroid_local, delta_x, delta_y, n_x, n_y, z_mode, yaw)
    mu, Sigma = gsf_predict(field, grid)
    Sigma = _clamp_psd(Sigma)
    weights = taxonomy.stability_vector()[np.argmax(mu, axis=-1)]
    return GpPopulation(grid, mu, Sigma, weights)


def yaw_reuse_plan(yaws, **grid) -> list[tuple[int, np.ndarray] | None]:
    """Which yaws need a probe and which reorder an earlier yaw's probe.

    `grid` takes the `probe_grid` arguments other than `yaw`. Entry k is
    None when yaw k must be probed, or (j, perm) when yaw k's grid points
    are yaw j's points reordered: point g of yaw k is point perm[g] of yaw
    j (within PERMUTATION_TOL), and yaw j is itself probed.
    """
    grids = [probe_grid(yaw=y, **grid) for y in yaws]
    plan: list[tuple[int, np.ndarray] | None] = []
    for k, points in enumerate(grids):
        reuse = None
        for j in range(k):
            if plan[j] is not None:
                continue
            dist = cdist(points, grids[j])
            perm = np.argmin(dist, axis=1)
            close = dist[np.arange(perm.size), perm].max() <= PERMUTATION_TOL
            if close and np.unique(perm).size == perm.size:
                reuse = (j, perm)
                break
        plan.append(reuse)
    return plan


def apply_stability_mask(Sigma: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """diag(w)^(1/2) . Sigma . diag(w)^(1/2); preserves symmetry and PSD.

    Broadcasts over leading axes: Sigma (..., G, G) with weights (..., G).
    """
    weights = np.atleast_1d(np.asarray(weights, dtype=np.float64))
    if np.any(weights <= 0.0):
        raise ValidationError("stability weights must be positive")
    if weights.shape[-1] != Sigma.shape[-1]:
        raise ValidationError(
            f"weights length {weights.shape[-1]} does not match Sigma size {Sigma.shape[-1]}"
        )
    sw = np.sqrt(weights)
    return Sigma * sw[..., :, None] * sw[..., None, :]


def reconstruction_miou(field: GaussianSemanticField, heldout_points, heldout_labels) -> float:
    """Mean IoU of argmax-mean predictions over classes present in pred or truth."""
    pts = np.asarray(heldout_points, dtype=np.float64).reshape(-1, 3)
    truth = np.asarray(heldout_labels).reshape(-1)
    if pts.shape[0] == 0:
        raise ValidationError("heldout set is empty")
    mean = matern32_matrix(pts, field.X, field.hyper.kappa) @ field.alpha  # no covariance
    pred = np.argmax(mean, axis=1)
    classes = np.union1d(np.unique(pred), np.unique(truth))
    ious = []
    for c in classes:
        inter = np.count_nonzero((pred == c) & (truth == c))
        union = np.count_nonzero((pred == c) | (truth == c))
        ious.append(inter / union if union else 0.0)
    return float(np.mean(ious))
