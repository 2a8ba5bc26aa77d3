"""Gaussian semantic field layer.

A field is an exact GP over a class-proportional sparsification of a local
neighborhood, mapping local 3D position to semantic logits (zero-mean prior,
Matern 3/2 kernel, independent output channels sharing one kernel matrix).
Grid probing evaluates the field on the uniform 2D grid of the config's
`GridSection` to produce a finite multivariate Gaussian population for
downstream comparison; this module is the only reader of that grid.

A fit factors K = L L^T once and caches the whitened targets L^-1 Y. A
prediction then makes one triangular solve, W = L^-1 k(X,Q), and reads both
moments from it: mu = W^T (L^-1 Y) and Sigma = k(Q,Q) - W^T W. The factor and
the solves are direct LAPACK calls (`dpotrf`, `dtrtrs`), the routines
`cho_factor` and `solve_triangular` call, without their input checks: their
inputs are finite, as `fit_gsf` refuses a non-finite coordinate or logit,
and `gsf_predict` and `reconstruction_miou` a non-finite point, each naming
its first bad row. A fit evaluates each pair's kernel once,
in `pdist` order, and writes only the triangle of K that `dpotrf` reads; a
jittered retry writes that triangle again from the same condensed values. The
prior k(Q,Q) is memoised on the probe points' values and kappa, since every
field is probed on the same grids.

Both LAPACK calls run on one BLAS thread, whoever calls them, and so do the
products of a prediction: while they run, every OpenBLAS loaded into the
process is set to one thread, and the count in effect before is restored
after them. OpenBLAS's own threads spin on these small matrices and save no
wall time, and its threaded factor differs from the one-thread factor in the
last bits, so a field would depend on the core count of the host that fitted
it. The setting is process-wide while they run; where no OpenBLAS is found,
nothing is set.

Probing takes one yaw or several. Several yaws give a stacked population, every
array with a leading yaw axis, each member equal to its own single-yaw probe.
`grid_probe` owns the yaw reuse: it probes only the yaws whose grid is not a
reordering of an earlier yaw's, in one kernel matrix, one triangular solve
and one batched PSD check, then gathers every yaw's member. The reuse plan,
and the (Y, G, 3) grid stack a query's population table holds (`yaw_grids`),
are built once per grid and yaw stack and memoised on their values.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.spatial.distance import cdist, pdist

from .config import GridSection, LengthScale
from .core import (
    GsflocError,
    LabelTaxonomy,
    Size,
    ValidationError,
    check_fields,
    check_finite,
    read,
    rot_z,
)

JITTER_START = 1e-8
JITTER_MAX = 1e-2


class FitError(GsflocError):
    """Kernel matrix factorization failed even after jitter escalation."""


@dataclass(frozen=True)
class GpHyperParams:
    kappa: LengthScale = 2.0  # meters
    sigma_y: Size = 0.1  # observation noise std

    def __post_init__(self):
        check_fields(self, lambda path: path)


@dataclass
class GaussianSemanticField:
    """Fitted sparse GP over local coordinates. Immutable after fit."""

    X: np.ndarray  # (M,3) local coordinates
    Y: np.ndarray  # (M,D) logits
    hyper: GpHyperParams
    # L, Fortran-ordered, zero above its diagonal: K = k(X,X) + sigma_y^2 I (+ jitter) = L L^T
    factor: np.ndarray
    white_y: np.ndarray  # (M,D) cached whitened targets L^-1 Y
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

    A stacked population (Y yaws) has a leading (Y,) axis on every array; a
    table of K instances puts a (K,) axis first, row i instance i's, on all
    but its shared grid. `pop[index]` reads or writes members as one stack.
    """

    grid: np.ndarray  # (G,3) probe locations, local frame
    mu: np.ndarray  # (G,D) predicted means
    Sigma: np.ndarray  # (G,G) predictive covariance, PSD (negatives clamped)
    stability_weights: np.ndarray  # (G,) in (0,1]

    def __getitem__(self, index) -> "GpPopulation":
        return GpPopulation(self.grid, self.mu[index], self.Sigma[index],
                            self.stability_weights[index])

    def __setitem__(self, index, pop: "GpPopulation") -> None:
        self.mu[index], self.Sigma[index] = pop.mu, pop.Sigma
        self.stability_weights[index] = pop.stability_weights


def semantic_sparsify(labels, budget: int, seed) -> np.ndarray:
    """Class-proportional downsampling of M labelled points to roughly `budget`.

    Each class keeps round((n_c / M) * budget) of its points, drawn uniformly
    without replacement, classes in ascending order, from
    `np.random.default_rng(seed)`. Returns the kept indices, ascending. With
    M <= budget every class keeps all its points, so nothing is drawn and the
    indices are 0..M-1.
    """
    labels = np.asarray(labels).reshape(-1)
    m = labels.shape[0]
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")
    if m < 1:
        raise ValidationError("cannot sparsify an empty point set")
    if m <= budget:
        return np.arange(m)
    rng = np.random.default_rng(seed)
    keep: list[np.ndarray] = []
    # one stable sort splits the points by class, classes ascending (so the
    # draws are deterministic), each class's indices ascending as `flatnonzero`
    # gives them
    order = np.argsort(labels, kind="stable")
    ordered = labels[order]
    for idx in np.split(order, np.flatnonzero(ordered[1:] != ordered[:-1]) + 1):
        n_c = min(int(np.rint(idx.size / m * budget)), idx.size)
        if n_c:
            keep.append(rng.choice(idx, size=n_c, replace=False))
    return np.sort(np.concatenate(keep)) if keep else np.zeros(0, dtype=np.int64)


def matern32(a, b, kappa: float) -> float:
    """Matern 3/2 kernel: (1 + s) exp(-s) with s = sqrt(3)*|a-b|/kappa; kappa
    is checked as `GpHyperParams.kappa` is."""
    kappa = read(LengthScale, kappa, lambda path: "kappa")
    s = np.sqrt(3.0) * np.linalg.norm(np.asarray(a, dtype=np.float64) - b) / kappa
    return float((1.0 + s) * np.exp(-s))


def _matern32_in_place(s: np.ndarray, kappa: float) -> np.ndarray:
    """The distances `s` overwritten by their Matern 3/2 values, and returned."""
    s *= np.sqrt(3.0) / kappa
    e = np.negative(s)
    np.exp(e, out=e)
    s += 1.0
    s *= e
    return s


def matern32_matrix(A: np.ndarray, B: np.ndarray, kappa: float) -> np.ndarray:
    return _matern32_in_place(cdist(A, B), kappa)


def _gram(X: np.ndarray, kappa: float) -> np.ndarray:
    """The entries of `matern32_matrix(X, X, kappa)` above its diagonal, bit for
    bit, condensed in `pdist` order: each pair's distance and kernel value
    computed once."""
    return _matern32_in_place(pdist(X), kappa)


_UPPER = np.zeros((0, 0), dtype=bool)  # replaced by a larger one as fits grow


def _upper(m: int) -> np.ndarray:
    """(m, m) mask of the entries above the diagonal, whose C order is the
    `pdist` order of pairs: the leading block of one module-wide mask, which
    is read-only, as every block of it is the same for every caller."""
    global _UPPER
    mask = _UPPER
    if mask.shape[0] < m:
        mask = np.triu(np.ones((m, m), dtype=bool), 1)
        mask.flags.writeable = False
        _UPPER = mask
    return mask[:m, :m]


def _kernel_triangle(kernel: np.ndarray, diag: float) -> np.ndarray:
    """The C-ordered (m, m) matrix with the condensed `kernel` above its
    diagonal, `diag` on it, and zeros below it: the one triangle `dpotrf`
    reads of its transpose."""
    m = (1 + math.isqrt(1 + 8 * kernel.size)) // 2
    K = np.zeros((m, m))
    K[_upper(m)] = kernel
    np.fill_diagonal(K, diag)
    return K


# (get, set) thread-count symbols of OpenBLAS builds: scipy's copy, numpy's
# copy with 64-bit integers, and a plain OpenBLAS with or without them
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _loaded_openblas() -> tuple[tuple, ...]:
    """The (get, set) thread-count functions of every OpenBLAS loaded into
    this process, found once from /proc/self/maps; none without /proc."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f}
    except OSError:
        return ()
    found = []
    for path in sorted(p for p in paths if p.startswith("/") and "openblas" in p.lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped name that does not load as a library
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


class _OneBlasThread:
    """Reentrant, thread-safe scope in which every loaded OpenBLAS runs one
    thread; the counts in effect when the outermost scope opened are restored
    when the last one closes, also when its body raises.

    The thread count is process state, so there is one instance, and its
    depth counts the scopes open in all Python threads together."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list = []  # (set, count before) per library

    def __enter__(self):
        with self._lock:
            if not self._depth:
                self._saved = [(set_, get()) for get, set_ in _loaded_openblas()]
                for set_, _ in self._saved:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if not self._depth:
                for set_, count in self._saved:
                    set_(count)


_one_blas_thread = _OneBlasThread()


def _factorize(kernel: np.ndarray, diag: float) -> tuple[np.ndarray, float]:
    """Cholesky with jitter escalation of the symmetric K whose entries above
    the diagonal are the condensed `kernel` and whose diagonal is `diag`;
    returns (lower factor L, jitter used).

    K is written in one triangle (`_kernel_triangle`), and LAPACK's `dpotrf`
    factors its transpose, a Fortran-ordered view, in place, as
    `cho_factor(K, lower=True)` factors the full K: LAPACK neither copies nor
    transposes it, and the factor is K's own buffer, with zeros above its
    diagonal. A failed attempt has overwritten part of that triangle, so each
    jittered retry writes it again from `kernel`, with `diag + jitter` on the
    diagonal.
    """
    with _one_blas_thread:
        jitter = 0.0
        while True:
            K = _kernel_triangle(kernel, diag + jitter)
            L, info = dpotrf(K.T, lower=1, clean=0, overwrite_a=1)
            if not info:  # info > 0: K is not positive definite
                return L, jitter
            jitter = 2.0 * jitter if jitter else JITTER_START
            if jitter > JITTER_MAX:
                raise FitError(f"kernel factorization failed up to jitter {jitter / 2.0:.3e}")


def _solve_lower(L: np.ndarray, B: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
    """L^-1 B for the Fortran-ordered lower factor L, by LAPACK's `dtrtrs`, as
    `solve_triangular(L, B, lower=True)` computes it. `overwrite_b` lets a
    Fortran-ordered float64 B hold the result in place."""
    with _one_blas_thread:
        x, info = dtrtrs(L, B, lower=1, overwrite_b=overwrite_b)
    if info:  # a Cholesky factor's diagonal is positive: not reached
        raise FitError(f"triangular solve failed at diagonal {info - 1}")
    return x


def fit_gsf(
    X_local,
    Y_logits,
    labels,
    hyper: GpHyperParams,
    budget: int,
    seed,
) -> GaussianSemanticField:
    """Sparsify to `budget` points, then fit an exact GP on what is kept:
    factorize K = k(X,X) + sigma_y^2 I = L L^T and cache the whitened targets
    L^-1 Y, one triangular solve, from which `gsf_predict` reads the mean.

    Points already sparsified, at most `budget` of them, are fit as they are.
    A non-finite coordinate or logit is a ValidationError naming its row."""
    X_local = np.asarray(X_local, dtype=np.float64).reshape(-1, 3)
    Y_logits = np.asarray(Y_logits, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if Y_logits.ndim != 2 or Y_logits.shape[0] != X_local.shape[0]:
        raise ValidationError(
            f"logits shape {Y_logits.shape} does not match {X_local.shape[0]} points"
        )
    if labels.shape[0] != X_local.shape[0]:
        raise ValidationError(
            f"{labels.shape[0]} labels do not match {X_local.shape[0]} points"
        )
    if X_local.shape[0] < 1:
        raise FitError("cannot fit a field on an empty neighborhood")
    check_finite(X_local, "point {row} has a non-finite coordinate")
    check_finite(Y_logits, "point {row} has a non-finite logit")

    idx = semantic_sparsify(labels, budget, seed)
    if idx.size == 0:
        raise FitError("sparsification produced 0 points (budget too small for class mix)")
    X, Y = X_local[idx], Y_logits[idx]
    factor, jitter = _factorize(_gram(X, hyper.kappa), 1.0 + hyper.sigma_y**2)
    return GaussianSemanticField(X, Y, hyper, factor, _solve_lower(factor, Y), jitter)


def _whiten(field: GaussianSemanticField, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W = L^-1 k(X, points) (M,N) and the posterior mean W^T L^-1 Y (N,D)
    at `points` (N,3)."""
    kqx = matern32_matrix(points, field.X, field.hyper.kappa)
    W = _solve_lower(field.factor, kqx.T, overwrite_b=True)  # in kqx's own buffer
    return W, W.T @ field.white_y


@functools.lru_cache(maxsize=16)
def _prior(points: bytes, shape: tuple, kappa: float) -> np.ndarray:
    """k(Q,Q) (Y,G,G) of each member of the float64 point stack Q (Y,G,3)
    whose bytes are `points`; memoised on those values and kappa, as every
    field is probed on the same grids, and so read-only."""
    Qs = np.frombuffer(points).reshape(shape)
    kqq = np.stack([matern32_matrix(q, q, kappa) for q in Qs])
    kqq.flags.writeable = False
    return kqq


def gsf_predict(field: GaussianSemanticField, Q) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance at query locations Q.

    Q (G,3) gives mu (G,D) and Sigma (G,G); a stack Q (Y,G,3) gives mu (Y,G,D)
    and Sigma (Y,G,G), member y predicted at Q[y]. All points share one kernel
    matrix against X and one triangular solve W = L^-1 k(X,Q), which gives
    mu = W^T L^-1 Y and Sigma = k(Q,Q) - W^T W. A non-finite point is a
    ValidationError naming its row of Q, flattened to (Y*G, 3).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    Qs = Q.reshape(-1, Q.shape[-2], 3)  # (Y,G,3); a single set is a stack of one
    check_finite(Q.reshape(-1, 3), "probe point {row} has a non-finite coordinate")
    n_y, g = Qs.shape[:2]
    with _one_blas_thread:  # the products too: OpenBLAS threads a large grid's
        W, mu = _whiten(field, Qs.reshape(-1, 3))
        mu = mu.reshape(n_y, g, -1)
        W = W.reshape(field.m, n_y, g).transpose(1, 0, 2)  # (Y,M,G)
        Sigma = _prior(Qs.tobytes(), Qs.shape, field.hyper.kappa) - np.swapaxes(W, 1, 2) @ W
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


def probe_grid(grid: GridSection, yaw: float | np.ndarray = 0.0) -> np.ndarray:
    """(nx * ny, 3) probe locations of `grid`, centered at the local origin.

    The grid's bounding box is symmetric about the origin; flattening is
    row-major over (i, j) with g = i*ny + j. `z_mode` is "local-zero" (probe
    at the centroid height, local z = 0) or a numeric z offset, added after
    the rotation. `yaw` rotates the grid about the local z axis; a 1-D array
    of Y yaws gives the (Y, nx * ny, 3) stack of those grids.
    """
    if grid.nx < 1 or grid.ny < 1:
        raise ValidationError("grid dimensions must be >= 1")
    z_off = 0.0 if grid.z_mode == "local-zero" else float(grid.z_mode)
    xs = (np.arange(grid.nx) - (grid.nx - 1) / 2.0) * grid.dx
    ys = (np.arange(grid.ny) - (grid.ny - 1) / 2.0) * grid.dy
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    local = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    yaws = np.asarray(yaw, dtype=np.float64)
    rot = np.stack([rot_z(y) for y in yaws.reshape(-1)])  # (Y,3,3)
    grids = local @ np.swapaxes(rot, 1, 2) + np.array([0.0, 0.0, z_off])
    return grids if yaws.ndim else grids[0]


def _memo_key(grid: GridSection, yaws: Sequence[float]) -> tuple:
    """The key a grid and a yaw list are memoised on: the grid's plain field
    values (astuple would deep-copy them on every call) and the yaws as floats."""
    return tuple(vars(grid).values()), tuple(np.asarray(yaws, dtype=np.float64).tolist())


@functools.lru_cache(maxsize=16)
def _yaw_grids(grid: tuple, yaws: tuple[float, ...]) -> np.ndarray:
    """`probe_grid` of the GridSection field values `grid` at the yaws: the
    (Y, G, 3) stack, shared by every call with the same key, so read-only."""
    grids = probe_grid(GridSection(*grid), np.array(yaws))
    grids.flags.writeable = False
    return grids


def yaw_grids(grid: GridSection, yaws: Sequence[float]) -> np.ndarray:
    """`probe_grid(grid, yaws)` for a yaw sequence, the (Y, G, 3) stack, built
    once per grid and yaw list and memoised on their values: read-only."""
    return _yaw_grids(*_memo_key(grid, yaws))


@functools.lru_cache(maxsize=16)
def _yaw_plan(grid: tuple, yaws: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """How `grid_probe` probes a yaw stack, for the GridSection field values
    `grid`: the points (P,G,3) of the P yaws it probes, and for every yaw k
    where it gathers from, as flat indices: at[k] (G,), its points among the
    P*G probed ones, and cells[k] (G,G), its covariance entries among the
    P*G*G of the probed members.

    A yaw is probed unless its grid points are an earlier probed yaw's
    reordered (within PERMUTATION_TOL). The arrays are shared by every call
    with the same key, so they are read-only.
    """
    grids = _yaw_grids(grid, yaws)
    g = grids.shape[1]
    probed, at = [], []
    for k, points in enumerate(grids):
        for j, done in enumerate(probed):
            dist = cdist(points, grids[done])
            order = np.argmin(dist, axis=1)
            close = dist[np.arange(order.size), order].max() <= PERMUTATION_TOL
            if close and np.unique(order).size == order.size:
                at.append(j * g + order)
                break
        else:
            at.append(len(probed) * g + np.arange(g))
            probed.append(k)
    at = np.stack(at)
    plan = (grids[probed], at, at[:, :, None] * g + at[:, None, :] % g)
    for a in plan:
        a.flags.writeable = False
    return plan


def stability_weights(mu: np.ndarray, taxonomy: LabelTaxonomy) -> np.ndarray:
    """Each grid point's stability weight, that of the class its mean `mu`
    (..., G, D) ranks first: (..., G)."""
    return taxonomy.stability_vector()[np.argmax(mu, axis=-1)]


def grid_probe(
    field: GaussianSemanticField,
    taxonomy: LabelTaxonomy,
    grid: GridSection,
    yaw: float | Sequence[float] = 0.0,
) -> GpPopulation:
    """Probe the field on `probe_grid(grid, yaw)`.

    A float yaw gives one population. A sequence of yaws gives a stacked one
    (grid (Y,G,3), mu (Y,G,D), Sigma (Y,G,G), weights (Y,G)), member y equal
    to the probe at yaw[y] alone: one `gsf_predict` at the yaws whose grid is
    not a reordering of an earlier one, then one gather for every yaw.
    """
    if np.ndim(yaw) == 0:
        points = probe_grid(grid, yaw)
    else:
        points, at, cells = _yaw_plan(*_memo_key(grid, yaw))
    mu, Sigma = gsf_predict(field, points)
    Sigma = _clamp_psd(Sigma)
    weights = stability_weights(mu, taxonomy)
    if np.ndim(yaw) == 0:
        return GpPopulation(points, mu, Sigma, weights)
    return GpPopulation(points.reshape(-1, 3).take(at, axis=0),
                        mu.reshape(-1, mu.shape[-1]).take(at, axis=0),
                        Sigma.take(cells), weights.take(at))


def apply_stability_mask(Sigma: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """diag(w)^(1/2) . Sigma . diag(w)^(1/2); preserves symmetry and PSD.

    Each entry is scaled by one factor sqrt(w_i) sqrt(w_j), the same for
    (i, j) and (j, i), so an exactly symmetric Sigma stays exactly symmetric.
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
    return Sigma * (sw[..., :, None] * sw[..., None, :])


def reconstruction_miou(field: GaussianSemanticField, heldout_points, heldout_labels) -> float:
    """Mean IoU of argmax-mean predictions over classes present in pred or truth.
    A non-finite held-out point is a ValidationError naming its row."""
    pts = np.asarray(heldout_points, dtype=np.float64).reshape(-1, 3)
    truth = np.asarray(heldout_labels).reshape(-1)
    if pts.shape[0] == 0:
        raise ValidationError("heldout set is empty")
    check_finite(pts, "held-out point {row} has a non-finite coordinate")
    _, mean = _whiten(field, pts)  # gsf_predict's mean, without the covariance
    pred = np.argmax(mean, axis=1)
    classes = np.union1d(np.unique(pred), np.unique(truth))
    ious = []
    for c in classes:
        inter = np.count_nonzero((pred == c) & (truth == c))
        union = np.count_nonzero((pred == c) | (truth == c))
        ious.append(inter / union if union else 0.0)
    return float(np.mean(ious))
