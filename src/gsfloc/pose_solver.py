"""6-DoF pose estimation from weighted centroid correspondences.

weighted_kabsch returns the exact minimizer of
    sum_i omega_i |p_i - R q_i - t|^2
via the weighted SVD construction. robust_irls minimizes the truncated
objective sum_i omega_i min(|p_i - R q_i - t|^2, tau0/omega_i) by
alternating hard truncation with the closed-form solve; each alternation
is a block-coordinate descent step, so the objective trace never increases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GsflocError, RigidTransform, ValidationError

# the least ratio of the second to the first singular value of the weighted,
# centred query points; below it the correspondences count as collinear and
# the rotation about their line is not determined. Thin but sound cliques in
# mirrored-twin scans reach down to about 0.037; poles on one line, with
# centimetre offsets, give under 0.007 and solve metres off.
MIN_SPREAD_RATIO = 0.02


class DegenerateGeometryError(GsflocError):
    """Surviving correspondence geometry is rank deficient (collinear)."""


class IrlsFailure(GsflocError):
    """Every pair fell past its truncation threshold."""

    def __init__(self, msg: str, pose: RigidTransform, trace: list[float]):
        super().__init__(msg)
        self.pose = pose
        self.trace = trace


@dataclass
class WeightedCorrespondenceSet:
    p: np.ndarray  # (n,3) query centroids
    q: np.ndarray  # (n,3) map centroids
    omega: np.ndarray  # (n,) finite weights > 0, in (0,1] from the similarity
    tau0: float = 1.0  # truncation base, meters^2

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=np.float64).reshape(-1, 3)
        self.q = np.asarray(self.q, dtype=np.float64).reshape(-1, 3)
        self.omega = np.asarray(self.omega, dtype=np.float64).reshape(-1)
        if not (self.p.shape[0] == self.q.shape[0] == self.omega.shape[0]):
            raise ValidationError(
                f"mismatched correspondence arrays: {self.p.shape[0]} query, "
                f"{self.q.shape[0]} map, {self.omega.shape[0]} weights"
            )
        if not np.all((self.omega > 0) & (self.omega < np.inf)):  # NaN fails both
            raise ValidationError("weights must be finite and positive")
        if self.tau0 <= 0:
            raise ValidationError(f"tau0 must be > 0, got {self.tau0}")

    @property
    def n(self) -> int:
        return self.p.shape[0]


def _kabsch(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> RigidTransform:
    if p.shape[0] < 3:
        raise ValidationError(f"need >= 3 correspondences, got {p.shape[0]}")
    wn = w / w.sum()
    p_bar = wn @ p
    q_bar = wn @ q
    pc = p - p_bar
    qc = q - q_bar
    # collinearity check: the weighted centred query points must spread in two
    # directions, the second at least MIN_SPREAD_RATIO of the first
    sv = np.linalg.svd(pc * np.sqrt(w)[:, None], compute_uv=False)
    ratio = sv[1] / sv[0] if sv[0] > 0.0 else 0.0
    if ratio < MIN_SPREAD_RATIO:
        raise DegenerateGeometryError(
            f"correspondences are collinear (singular value ratio {ratio:.3e} "
            f"< {MIN_SPREAD_RATIO})"
        )
    H = (qc * w[:, None]).T @ pc  # sum_i w_i (q-q_bar)(p-p_bar)^T
    U, _, Vt = np.linalg.svd(H)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, 1.0, d]) @ U.T
    t = p_bar - R @ q_bar
    return RigidTransform(R, t)


def weighted_kabsch(cset: WeightedCorrespondenceSet) -> RigidTransform:
    """Global minimizer of the weighted least-squares alignment objective."""
    return _kabsch(cset.p, cset.q, cset.omega)


def _residual_sq(cset: WeightedCorrespondenceSet, T: RigidTransform) -> np.ndarray:
    return np.sum((cset.p - cset.q @ T.R.T - T.t) ** 2, axis=1)


def truncated_objective(cset: WeightedCorrespondenceSet, T: RigidTransform) -> float:
    """sum_i min(omega_i r_i^2, tau0)."""
    r2 = _residual_sq(cset, T)
    return float(np.sum(np.minimum(cset.omega * r2, cset.tau0)))


def robust_irls(
    cset: WeightedCorrespondenceSet,
    max_iters: int = 20,
    rel_tol: float = 1e-6,
) -> tuple[RigidTransform, np.ndarray, list[float]]:
    """Alternating truncation / closed-form solve on the robust objective.

    Returns (pose, survivor mask, objective trace). The per-pair threshold is
    tau_i = tau0 / omega_i, so high-confidence pairs are truncated sooner.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    tau = cset.tau0 / cset.omega
    T = weighted_kabsch(cset)
    trace = [truncated_objective(cset, T)]
    mask = _residual_sq(cset, T) <= tau
    for _ in range(max_iters):
        if not mask.any():
            raise IrlsFailure("all pairs truncated", T, trace)
        if mask.sum() < 3:
            raise DegenerateGeometryError(
                f"only {int(mask.sum())} pairs survive truncation; 3 are required"
            )
        T_new = _kabsch(cset.p[mask], cset.q[mask], cset.omega[mask])
        obj = truncated_objective(cset, T_new)
        trace.append(obj)
        T = T_new
        mask = _residual_sq(cset, T) <= tau
        prev = trace[-2]
        if abs(prev - obj) <= rel_tol * max(prev, 1e-30):
            break
    if not mask.any():
        raise IrlsFailure("all pairs truncated at the final pose", T, trace)
    return T, mask, trace
