import numpy as np
import pytest

from gsfloc.core import ValidationError
from gsfloc.gsf import GpPopulation, apply_stability_mask
from gsfloc.wasserstein import (
    BOUND_SLACK,
    SimilarityConfig,
    psd_sqrt,
    similarity_weight,
    w2_lower_bound,
    w2_squared,
)

from conftest import as_table, planted_table


def random_psd(rng, g):
    A = rng.normal(size=(g, g))
    return A @ A.T


def make_pop(mu, Sigma, weights=None):
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    if mu.shape[0] == 1 and mu.shape[1] != 1 and np.asarray(Sigma).shape[0] != 1:
        mu = mu.T
    g = mu.shape[0]
    Sigma = np.asarray(Sigma, dtype=float).reshape(g, g)
    w = np.ones(g) if weights is None else np.asarray(weights, dtype=float)
    return GpPopulation(np.zeros((g, 3)), mu, Sigma, w)


def random_pop(rng, g, d):
    return make_pop(rng.normal(size=(g, d)), random_psd(rng, g), rng.uniform(0.1, 1.0, g))


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_array_almost_equal(psd_sqrt(np.eye(3)), np.eye(3), decimal=12)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_multiply_back(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            S = random_psd(rng, int(rng.integers(2, 12)))
            r = psd_sqrt(S)
            assert np.abs(r - r.T).max() < 1e-10
            rel = np.linalg.norm(r @ r - S) / np.linalg.norm(S)
            assert rel < 1e-6

    def test_asymmetry_rejected(self):
        S = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            psd_sqrt(S)

    @pytest.mark.parametrize("g, b", [(25, 17), (3, 1), (1, 4)])
    def test_stack_equals_member_calls(self, g, b):
        """One batched call roots every member of a stack exactly as its own call."""
        rng = np.random.default_rng(g + b)
        stack = np.stack([random_psd(rng, g) for _ in range(b)])
        got = psd_sqrt(stack)
        assert got.shape == (b, g, g)
        assert np.array_equal(got, np.stack([psd_sqrt(S) for S in stack]))

    def test_stack_with_one_asymmetric_member_rejected(self):
        rng = np.random.default_rng(2)
        stack = np.stack([random_psd(rng, 4) for _ in range(5)])
        stack[3, 2, 1] += 1e-6  # off the first row and the first member
        with pytest.raises(ValidationError, match="symmetric"):
            psd_sqrt(stack)

    def test_negative_eigenvalues_clamped(self):
        S = np.diag([1.0, -1e-9])
        r = psd_sqrt(S)
        assert r[1, 1] == 0.0


class TestW2:
    def test_identical_populations(self):
        rng = np.random.default_rng(1)
        pop = random_pop(rng, 5, 3)
        assert w2_squared(pop, pop) < 1e-8

    def test_1d_mean_shift(self):
        a = make_pop([[0.0]], [[1.0]])
        b = make_pop([[3.0]], [[1.0]])
        assert abs(w2_squared(a, b) - 9.0) < 1e-10

    def test_1d_sigma_difference(self):
        a = make_pop([[1.0]], [[1.0]])  # std 1
        b = make_pop([[1.0]], [[4.0]])  # std 2
        assert abs(w2_squared(a, b) - 1.0) < 1e-10

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = random_pop(rng, 4, 2), random_pop(rng, 4, 2)
            assert abs(w2_squared(a, b) - w2_squared(b, a)) < 1e-9
            assert w2_squared(a, b) >= 0.0

    def test_triangle_inequality_monte_carlo(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            g, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            a, b, c = (random_pop(rng, g, d) for _ in range(3))
            ab = np.sqrt(w2_squared(a, b))
            bc = np.sqrt(w2_squared(b, c))
            ac = np.sqrt(w2_squared(a, c))
            assert ac <= ab + bc + 1e-7

    def test_stability_all_ones_identical(self):
        rng = np.random.default_rng(4)
        a = make_pop(rng.normal(size=(4, 2)), random_psd(rng, 4))
        b = make_pop(rng.normal(size=(4, 2)), random_psd(rng, 4))
        assert w2_squared(a, b, use_stability=True) == w2_squared(a, b, use_stability=False)

    def test_stability_discounts_volatile_points(self):
        rng = np.random.default_rng(5)
        mu_a, mu_b = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        S = random_psd(rng, 4)
        low = make_pop(mu_a, S, [0.1, 0.1, 0.1, 0.1])
        also_low = make_pop(mu_b, S, [0.1, 0.1, 0.1, 0.1])
        full = w2_squared(make_pop(mu_a, S), make_pop(mu_b, S))
        masked = w2_squared(low, also_low, use_stability=True)
        assert masked < full

    def test_covariance_scaling(self):
        rng = np.random.default_rng(6)
        mu = rng.normal(size=(4, 2))
        S1, S2 = random_psd(rng, 4), random_psd(rng, 4)
        base = w2_squared(make_pop(mu, S1), make_pop(mu, S2))
        s = 2.5
        scaled = w2_squared(make_pop(mu, s**2 * S1), make_pop(mu, s**2 * S2))
        assert abs(scaled - s**2 * base) < 1e-8 * max(1.0, abs(base))

    def test_stability_mask_exactly_symmetric_at_any_scale(self):
        """The mask keeps an exactly symmetric covariance exactly symmetric, so a
        25-point pair with covariance entries up to about 1e12 scores, at c^2
        times its unscaled W2^2, and is not refused as asymmetric."""
        rng = np.random.default_rng(10)
        a, b = (random_pop(rng, 25, 12) for _ in range(2))
        for p in (a, b):
            p.Sigma = 0.5 * (p.Sigma + p.Sigma.T) / 25
        base = w2_squared(a, b, use_stability=True)
        for c2 in (1e4, 1e8, 1e12):
            sa, sb = (make_pop(np.sqrt(c2) * p.mu, c2 * p.Sigma, p.stability_weights)
                      for p in (a, b))
            masked = apply_stability_mask(sa.Sigma, sa.stability_weights)
            assert np.array_equal(masked, masked.T)
            assert abs(w2_squared(sa, sb, use_stability=True) - c2 * base) <= 1e-9 * c2 * base

    def test_stack_equals_member_calls(self):
        """A stack of populations as A scores each member exactly as its own call."""
        rng = np.random.default_rng(9)
        for use_stability in (False, True):
            for g, d, y in [(25, 12, 8), (4, 2, 1), (9, 3, 5)]:
                members = [random_pop(rng, g, d) for _ in range(y)]
                b = random_pop(rng, g, d)
                stack = as_table(members)
                want = [w2_squared(m, b, use_stability) for m in members]
                got = w2_squared(stack, b, use_stability)
                assert isinstance(got, np.ndarray) and got.shape == (y,)
                assert got.tolist() == want
                assert all(type(v) is float for v in want)

    @pytest.mark.parametrize("use_stability", [False, True])
    def test_pair_table_equals_single_calls(self, use_stability):
        """A table of pairs over stacks of A yaw stacks and B populations, map
        members repeated and unused, equals one call per pair, bit for bit."""
        rng = np.random.default_rng(11)
        g, d, y = 25, 12, 8
        a_members = [as_table([random_pop(rng, g, d) for _ in range(y)]) for _ in range(3)]
        b_members = [random_pop(rng, g, d) for _ in range(5)]
        ia = np.array([0, 0, 1, 2, 2, 2, 1])
        ib = np.array([4, 1, 1, 0, 4, 3, 4])
        got = w2_squared(as_table(a_members), as_table(b_members), use_stability, (ia, ib))
        want = np.stack([w2_squared(a_members[i], b_members[j], use_stability)
                         for i, j in zip(ia, ib)])
        assert got.shape == (7, y) and np.array_equal(got, want)
        singles = [random_pop(rng, g, d) for _ in range(2)]  # A members without a yaw axis
        got = w2_squared(as_table(singles), as_table(b_members), use_stability, (ia % 2, ib))
        assert got.shape == (7,) and np.array_equal(
            got, [w2_squared(singles[i % 2], b_members[j], use_stability) for i, j in zip(ia, ib)])

    def test_zero_pairs(self):
        rng = np.random.default_rng(12)
        a = as_table([random_pop(rng, 4, 2) for _ in range(3)])[None]
        b = random_pop(rng, 4, 2)[None]
        empty = np.zeros(0, dtype=np.intp)
        assert w2_squared(a, b, True, (empty, empty)).shape == (0, 3)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValidationError, match="shapes"):
            w2_squared(random_pop(rng, 3, 2), random_pop(rng, 4, 2))
        stack = as_table([random_pop(rng, 3, 2), random_pop(rng, 3, 2)])
        with pytest.raises(ValidationError, match="shapes"):
            w2_squared(stack, random_pop(rng, 4, 2))

    def test_gathers_equal_list_stacks(self):
        """`pop[None]` is the stack of one member, and `pop[index]` of a table
        the stack of the rows at `index`, array for array, the grid shared;
        `pop[index] = other` writes other's members there."""
        rng = np.random.default_rng(13)
        members = [as_table([random_pop(rng, 4, 2) for _ in range(3)]) for _ in range(5)]
        table = as_table(members)
        rows, yaws = np.array([3, 0, 3, 1]), np.array([2, 0, 1, 2])
        for pop, got, want in [
                (members[2], members[2][None], [members[2]]),
                (table, table[rows], [members[i] for i in rows]),
                (table, table[rows, yaws], [members[i][y] for i, y in zip(rows, yaws)])]:
            assert got.grid is pop.grid
            for f in ("mu", "Sigma", "stability_weights"):
                assert np.array_equal(getattr(got, f), np.stack([getattr(m, f) for m in want]))
        table[[4, 1]] = table[[0, 2]]
        for f in ("mu", "Sigma", "stability_weights"):
            assert np.array_equal(getattr(table, f)[[4, 1]], getattr(table, f)[[0, 2]])


class TestSimilarityWeight:
    def test_zero_distance(self):
        cfg = SimilarityConfig(sigma_w=1.0, accept_threshold=1.0)
        assert similarity_weight(0.0, cfg) == 1.0

    def test_e_folding(self):
        cfg = SimilarityConfig(sigma_w=1.3, accept_threshold=1.0)
        assert abs(similarity_weight(2.0 * 1.3**2, cfg) - np.exp(-1.0)) < 1e-12

    def test_strictly_decreasing(self):
        cfg = SimilarityConfig(sigma_w=0.8, accept_threshold=1.0)
        vals = [similarity_weight(x, cfg) for x in np.linspace(0, 10, 100)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SimilarityConfig(sigma_w=0.0, accept_threshold=1.0)
        # outside [1e-100, 1e100] sigma_w**2 underflows or overflows, and NaN fails any bound
        for sigma_w in (1e-300, 9e-101, 1.1e100, 1e200, np.nan, np.inf):
            with pytest.raises(ValidationError, match=r"sigma_w must lie in \[1e-100, 1e\+100\]"):
                SimilarityConfig(sigma_w=sigma_w, accept_threshold=1.0)
        for sigma_w in (1e-100, 1e100):
            assert similarity_weight(1.0, SimilarityConfig(sigma_w, 1.0)) in (0.0, 1.0)
        with pytest.raises(ValidationError):
            SimilarityConfig(sigma_w=1.0, accept_threshold=-1.0)


class TestLowerBound:
    @pytest.mark.parametrize("rank", [None, 3, 0], ids=["full-rank", "rank-3", "zero"])
    @pytest.mark.parametrize("use_stability", [False, True])
    def test_below_value_on_every_member(self, rank, use_stability):
        """The bound never exceeds the value `w2_squared` computes for the same
        (pair, yaw) member, tight members included."""
        a, b, pairs = planted_table(np.random.default_rng(21), rank=rank)
        bound, value = (f(a, b, use_stability, pairs) for f in (w2_lower_bound, w2_squared))
        assert bound.shape == value.shape == (12, 8)
        assert np.all(bound <= value)

    @pytest.mark.parametrize("c", [0.0, 0.25, 1.0, 4.0])
    @pytest.mark.parametrize("use_stability", [False, True])
    def test_tight_for_proportional_covariances(self, c, use_stability):
        """With equal means and S_A = c S_B, W2^2 = (sqrt(c) - 1)^2 Tr S_B: the
        bound plus its slack gives it back, within 1e-9 of the scale."""
        rng = np.random.default_rng(22)
        b = random_pop(rng, 25, 12)
        a = GpPopulation(b.grid, b.mu, c * b.Sigma, b.stability_weights)
        one = np.zeros(1, dtype=np.intp)
        a_s, b_s = a[None], b[None]
        bound = w2_lower_bound(a_s, b_s, use_stability, (one, one))[0]
        trace_b = np.trace(apply_stability_mask(b.Sigma, b.stability_weights)
                           if use_stability else b.Sigma)
        scale = (1.0 + c) * trace_b
        slack = BOUND_SLACK * 25 ** 1.5 * scale
        assert abs(bound + slack - (np.sqrt(c) - 1.0) ** 2 * trace_b) < 1e-9 * scale
        assert abs(w2_squared(a, b, use_stability) - (bound + slack)) < 1e-9 * scale

    def test_mean_term_counts(self):
        """Equal covariances: the bound is the mean term, less the slack."""
        a = make_pop([0.0, 1.0], np.eye(2))
        b = make_pop([3.0, 1.0], np.eye(2))
        one = np.zeros(1, dtype=np.intp)
        bound = w2_lower_bound(a[None], b[None], False, (one, one))[0]
        assert bound == pytest.approx(9.0 - BOUND_SLACK * 2 ** 1.5 * 13.0, rel=1e-15)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(7)
        one = np.zeros(1, dtype=np.intp)
        with pytest.raises(ValidationError, match="shapes"):
            w2_lower_bound(random_pop(rng, 3, 2)[None], random_pop(rng, 4, 2)[None], True,
                           (one, one))
