import numpy as np
import pytest

from gsfloc.core import RigidTransform, ValidationError, rotation_angle_deg, rot_z
from gsfloc.pose_solver import (
    DegenerateGeometryError,
    IrlsFailure,
    WeightedCorrespondenceSet,
    robust_irls,
    truncated_objective,
    weighted_kabsch,
)

from conftest import random_rotation, random_transform


def cset(p, q, omega, tau0=1.0):
    return WeightedCorrespondenceSet(p, q, omega, tau0)


class TestWeightedKabsch:
    def test_identity_on_equal_sets(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(-5, 5, (6, 3))
        T = weighted_kabsch(cset(q, q, rng.uniform(0.1, 1.0, 6)))
        assert np.abs(T.R - np.eye(3)).max() < 1e-12
        assert np.abs(T.t).max() < 1e-12

    def test_recovers_random_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            T = random_transform(rng, t_scale=20.0)
            q = rng.uniform(-10, 10, (int(rng.integers(3, 12)), 3))
            est = weighted_kabsch(cset(T.apply(q), q, rng.uniform(0.2, 1.0, len(q))))
            assert np.linalg.norm(est.t - T.t) <= 1e-9
            assert rotation_angle_deg(T.R.T @ est.R) <= 1e-7

    def test_duplicate_pair_equals_doubled_weight(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-5, 5, (5, 3))
        p = random_transform(rng).apply(q) + rng.normal(0, 0.1, (5, 3))
        w = rng.uniform(0.2, 1.0, 5)
        dup = weighted_kabsch(
            cset(np.vstack([p, p[:1]]), np.vstack([q, q[:1]]), np.append(w, w[0]))
        )
        w2 = w.copy()
        w2[0] *= 2
        doubled = weighted_kabsch(cset(p, q, w2))
        assert np.abs(dup.R - doubled.R).max() < 1e-12
        assert np.abs(dup.t - doubled.t).max() < 1e-12

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(-5, 5, (8, 3))
        p = random_transform(rng).apply(q) + rng.normal(0, 0.05, (8, 3))
        w = rng.uniform(0.2, 1.0, 8)
        a = weighted_kabsch(cset(p, q, w))
        b = weighted_kabsch(cset(p, q, 7.3 * w))
        assert np.abs(a.R - b.R).max() < 1e-12
        assert np.abs(a.t - b.t).max() < 1e-12

    def test_equivariance(self):
        rng = np.random.default_rng(4)
        q = rng.uniform(-5, 5, (7, 3))
        p = rng.uniform(-5, 5, (7, 3))
        w = rng.uniform(0.2, 1.0, 7)
        base = weighted_kabsch(cset(p, q, w))
        T = random_transform(rng)
        moved = weighted_kabsch(cset(T.apply(p), q, w))
        composed = T.compose(base)
        assert np.abs(moved.R - composed.R).max() < 1e-9
        assert np.abs(moved.t - composed.t).max() < 1e-9

    def test_global_optimality_spot_check(self):
        rng = np.random.default_rng(5)
        q = rng.uniform(-5, 5, (10, 3))
        p = random_transform(rng).apply(q) + rng.normal(0, 0.2, (10, 3))
        w = rng.uniform(0.2, 1.0, 10)
        est = weighted_kabsch(cset(p, q, w))

        def objective(T):
            return np.sum(w * np.sum((p - q @ T.R.T - T.t) ** 2, axis=1))

        best = objective(est)
        for _ in range(1000):
            pert = RigidTransform(
                rot_z(rng.normal(0, 0.3)) @ random_rotation(rng) @ est.R
                if rng.random() < 0.5
                else est.R @ rot_z(rng.normal(0, 0.05)),
                est.t + rng.normal(0, 0.5, 3),
            )
            assert objective(pert) >= best - 1e-9

    def test_arity_error(self):
        with pytest.raises(ValidationError, match=">= 3"):
            weighted_kabsch(cset(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2)))

    def test_collinear_degenerate(self):
        q = np.array([[0, 0, 0], [1, 0, 0], [2.0, 0, 0], [3.0, 0, 0]])
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            weighted_kabsch(cset(q, q, np.ones(4)))

    def test_near_collinear_degenerate(self):
        # a 45 m line with offsets of centimetres: the spread ratio is about 0.0025
        q = np.array([[0, 0.02, 0], [7, -0.01, 0], [15, 0.03, 0.1], [26, 0, 0],
                      [34, -0.02, 0], [45.0, 0.01, 0]])
        with pytest.raises(DegenerateGeometryError, match="collinear"):
            weighted_kabsch(cset(q, q, np.ones(6)))

    def test_three_point_planar_solve_works(self):
        # three points are always coplanar; that must not count as degenerate
        rng = np.random.default_rng(6)
        T = random_transform(rng)
        q = np.array([[0, 0, 0], [4.0, 0, 0], [0, 3.0, 0]])
        est = weighted_kabsch(cset(T.apply(q), q, np.ones(3)))
        assert np.linalg.norm(est.t - T.t) < 1e-9

    def test_thin_triangle_solve_works(self):
        # a 21 m triangle 0.75 m wide, spread ratio about 0.04: thin cliques this
        # shape solve correctly in mirrored-twin scans and must not count as collinear
        rng = np.random.default_rng(6)
        T = random_transform(rng)
        q = np.array([[0, 0, 0], [21.0, 0, 0], [9.0, 0.75, 0]])
        est = weighted_kabsch(cset(T.apply(q), q, np.ones(3)))
        assert np.linalg.norm(est.t - T.t) < 1e-9

    def test_weight_validation(self):
        with pytest.raises(ValidationError, match="positive"):
            cset(np.zeros((3, 3)), np.zeros((3, 3)), [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_refused(self, bad):
        """A NaN weight fails no `<= 0` test, and an infinite one swamps the
        solve: both are refused as a zero weight is."""
        with pytest.raises(ValidationError, match="weights must be finite and positive"):
            cset(np.zeros((3, 3)), np.zeros((3, 3)), [1.0, bad, 1.0])


    @pytest.mark.parametrize("tau0", [0.0, -1.0, np.nan])
    def test_tau0_validation(self, tau0):
        with pytest.raises(ValidationError, match="tau0 must be > 0"):
            cset(np.zeros((3, 3)), np.zeros((3, 3)), np.ones(3), tau0=tau0)


class TestRobustIrls:
    def test_noiseless_equals_kabsch(self):
        rng = np.random.default_rng(7)
        T = random_transform(rng)
        q = rng.uniform(-5, 5, (10, 3))
        w = rng.uniform(0.3, 1.0, 10)
        s = cset(T.apply(q), q, w, tau0=1.0)
        T_irls, mask, trace = robust_irls(s)
        T_k = weighted_kabsch(s)
        assert np.abs(T_irls.R - T_k.R).max() < 1e-12
        assert mask.all()

    def test_tau_infinite_equals_kabsch_exactly(self):
        rng = np.random.default_rng(8)
        q = rng.uniform(-5, 5, (8, 3))
        p = random_transform(rng).apply(q) + rng.normal(0, 0.5, (8, 3))
        w = rng.uniform(0.3, 1.0, 8)
        s = cset(p, q, w, tau0=np.inf)
        T_irls, mask, _ = robust_irls(s)
        T_k = weighted_kabsch(s)
        assert (T_irls.R == T_k.R).all() and (T_irls.t == T_k.t).all()
        assert mask.all()

    def _outlier_problem(self, seed, n=30, frac_in=0.6, extent=10.0):
        rng = np.random.default_rng(seed)
        T = RigidTransform(random_rotation(rng), rng.uniform(-30, 30, 3))
        n_in = int(round(frac_in * n))
        q_in = rng.uniform(-extent, extent, (n_in, 3))
        p_in = T.apply(q_in)
        q_out = rng.uniform(-extent, extent, (n - n_in, 3))
        p_out = T.apply(rng.uniform(-extent, extent, (n - n_in, 3)))
        omega = np.concatenate(
            [rng.uniform(0.7, 1.0, n_in), rng.uniform(0.1, 0.4, n - n_in)]
        )
        s = cset(np.vstack([p_in, p_out]), np.vstack([q_in, q_out]), omega, tau0=1.0)
        return T, s, n_in

    def test_outlier_recovery_single_case(self):
        T, s, n_in = self._outlier_problem(seed=0)
        est, mask, trace = robust_irls(s)
        assert np.linalg.norm(est.t - T.t) <= 0.05
        assert rotation_angle_deg(T.R.T @ est.R) <= 0.5
        assert mask[:n_in].all()  # mask contains the inlier set

    def test_objective_trace_non_increasing(self):
        for seed in range(20):
            try:
                _, s, _ = self._outlier_problem(seed)
                _, _, trace = robust_irls(s)
            except (IrlsFailure, DegenerateGeometryError):
                continue
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_all_truncated_failure_carries_pose(self):
        rng = np.random.default_rng(9)
        q = rng.uniform(-5, 5, (6, 3))
        p = q + rng.uniform(3.0, 6.0, (6, 3))  # residuals far above tau everywhere
        s = cset(p, q, np.ones(6), tau0=1e-6)
        with pytest.raises(IrlsFailure) as exc:
            robust_irls(s)
        assert isinstance(exc.value.pose, RigidTransform)
        assert exc.value.trace

    def test_objective_definition(self):
        rng = np.random.default_rng(10)
        q = rng.uniform(-5, 5, (5, 3))
        p = q + rng.normal(0, 2.0, (5, 3))
        w = rng.uniform(0.3, 1.0, 5)
        s = cset(p, q, w, tau0=0.7)
        T = RigidTransform.identity()
        r2 = np.sum((p - q) ** 2, axis=1)
        want = np.sum(np.minimum(w * r2, 0.7))
        assert abs(truncated_objective(s, T) - want) < 1e-12

    def test_max_iters_validation(self):
        rng = np.random.default_rng(11)
        q = rng.uniform(-5, 5, (4, 3))
        with pytest.raises(ValidationError):
            robust_irls(cset(q, q, np.ones(4)), max_iters=0)
