import hashlib
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_factor, inv, solve_triangular
from scipy.spatial.distance import cdist

from gsfloc import gsf
from gsfloc.config import GridSection, RunConfig
from gsfloc.core import ValidationError, default_taxonomy, one_hot_logits
from gsfloc.gsf import (
    FitError,
    GpHyperParams,
    _clamp_psd,
    apply_stability_mask,
    fit_gsf,
    grid_probe,
    gsf_predict,
    matern32,
    matern32_matrix,
    probe_grid,
    reconstruction_miou,
    semantic_sparsify,
)


class TestSparsify:
    def test_proportional_counts(self):
        labels = np.array([0] * 80 + [1] * 20)
        idx = semantic_sparsify(labels, budget=10, seed=1)
        assert np.count_nonzero(labels[idx] == 0) == 8
        assert np.count_nonzero(labels[idx] == 1) == 2
        assert idx.size == 10

    def test_budget_at_least_m_keeps_all(self):
        labels = np.random.default_rng(1).integers(0, 4, 37)
        for budget in (37, 38, 2048):
            assert np.array_equal(semantic_sparsify(labels, budget, seed=0), np.arange(37))

    def test_single_class_exact(self):
        idx = semantic_sparsify(np.full(100, 3), budget=5, seed=0)
        assert idx.size == 5 and np.unique(idx).size == 5

    def test_proportion_property(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            m = int(rng.integers(20, 300))
            labels = rng.integers(0, 6, m)
            n = int(rng.integers(1, m + 10))
            labs = labels[semantic_sparsify(labels, n, seed=int(rng.integers(1e6)))]
            for c in np.unique(labels):
                n_c = np.count_nonzero(labs == c)
                target = np.count_nonzero(labels == c) / m * n
                # rint can be beaten by the per-class cap, never exceeded by more than 0.5
                assert n_c <= np.count_nonzero(labels == c)
                assert abs(min(target, np.count_nonzero(labels == c)) - n_c) <= 0.5 + 1e-9

    def test_determinism(self):
        labels = np.random.default_rng(4).integers(0, 5, 200)
        a = semantic_sparsify(labels, 64, seed=99)
        b = semantic_sparsify(labels, 64, seed=99)
        assert np.array_equal(a, b)

    def test_indices_trace_back(self):
        """The kept indices are distinct rows of the input, ascending."""
        labels = np.random.default_rng(5).integers(0, 3, 50)
        idx = semantic_sparsify(labels, 20, seed=0)
        assert np.all(np.diff(idx) > 0) and 0 <= idx[0] and idx[-1] < 50

    @pytest.mark.parametrize("budget, m", [(0, 5), (3, 0)])
    def test_bad_budget_or_empty_refused(self, budget, m):
        with pytest.raises(ValidationError):
            semantic_sparsify(np.zeros(m, int), budget, seed=0)


class TestKernel:
    def test_diagonal_is_one(self):
        a = np.array([1.0, 2.0, 3.0])
        assert matern32(a, a, kappa=2.0) == 1.0

    def test_analytic_value(self):
        a = np.zeros(3)
        b = np.array([2.0 / np.sqrt(3.0), 0.0, 0.0])  # d = kappa/sqrt(3)
        assert abs(matern32(a, b, kappa=2.0) - 2.0 * np.exp(-1.0)) < 1e-12

    def test_monotone_decreasing(self):
        a = np.zeros(3)
        vals = [matern32(a, [d, 0, 0], kappa=1.5) for d in np.linspace(0, 10, 200)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_length_scale_and_noise_refused(self, bad):
        """A kappa that is not > 0 and a sigma_y that is not >= 0 are refused,
        NaN too, which fails no `<= 0` test and which the reader reports as
        not finite."""
        nan = np.isnan(bad)
        with pytest.raises(ValidationError, match="kappa must be " + ("finite" if nan else "> 0")):
            matern32(np.zeros(3), np.ones(3), bad)
        with pytest.raises(ValidationError, match="kappa must be " + ("finite" if nan else "> 0")):
            GpHyperParams(kappa=bad)
        if bad != 0.0:
            with pytest.raises(ValidationError,
                               match="sigma_y must be " + ("finite" if nan else ">= 0")):
                GpHyperParams(sigma_y=bad)

    def test_matrix_matches_double_loop(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(7, 3))
        B = rng.normal(size=(5, 3))
        K = matern32_matrix(A, B, kappa=1.3)
        for i in range(7):
            for j in range(5):
                assert abs(K[i, j] - matern32(A[i], B[j], 1.3)) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 7, 60, 256])
    def test_gram_equals_cross_kernel(self, m):
        """The fit's kernel matrix, each pair evaluated once and written in one
        triangle, is bit-equal to the cross kernel of X with itself on and
        above the diagonal, and zero below it."""
        rng = np.random.default_rng(m)
        X = rng.normal(size=(m, 3)) * rng.uniform(0.1, 5.0)
        kappa = rng.uniform(0.5, 4.0)
        K = gsf._kernel_triangle(gsf._gram(X, kappa), 1.0)
        assert np.array_equal(K, np.triu(matern32_matrix(X, X, kappa)))
        assert np.all(np.diag(K) == 1.0)

    def test_cross_kernel_equals_its_formula(self):
        """Evaluated in place, the cross kernel is bit-equal to (1 + s) exp(-s)
        with s = sqrt(3) / kappa * |a - b| written out."""
        rng = np.random.default_rng(21)
        for m, n in [(1, 1), (7, 5), (50, 200)]:
            A, B = rng.normal(size=(m, 3)) * 3.0, rng.normal(size=(n, 3)) * 3.0
            s = np.sqrt(3.0) / 1.3 * cdist(A, B)
            assert np.array_equal(matern32_matrix(A, B, 1.3), (1.0 + s) * np.exp(-s))

    def test_gram_equals_scalar_kernel(self):
        """Against the scalar `matern32` per pair: bit-equal on the diagonal, and
        within 4 machine epsilons off it, since the scalar form scales |a - b|
        in another order and exponentiates one number at a time."""
        rng = np.random.default_rng(22)
        for m in (1, 3, 9):
            X = rng.normal(size=(m, 3)) * rng.uniform(0.1, 5.0)
            kappa = rng.uniform(0.5, 4.0)
            loop = np.array([[matern32(a, b, kappa) for b in X] for a in X])
            K = gsf._kernel_triangle(gsf._gram(X, kappa), 1.0)
            assert np.array_equal(np.diag(K), np.diag(loop))
            assert np.abs(K - np.triu(loop)).max() <= 4 * np.finfo(np.float64).eps

    def test_kernel_matrix_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            X = rng.normal(size=(rng.integers(2, 30), 3)) * rng.uniform(0.1, 5)
            K = matern32_matrix(X, X, kappa=rng.uniform(0.5, 4.0))
            assert np.abs(K - K.T).max() < 1e-12
            assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestFit:
    def test_single_point_kernel(self):
        hyper = GpHyperParams(kappa=2.0, sigma_y=0.3)
        fld = fit_gsf(np.zeros((1, 3)), np.array([[1.0]]), [0], hyper, budget=1, seed=0)
        # K is 1x1 = [1 + sigma_y^2]; check through the cached solve
        mu, Sigma = gsf_predict(fld, np.zeros((1, 3)))
        assert abs(mu[0, 0] - 1.0 / 1.09) < 1e-12

    def test_duplicated_points_sigma0_jitter_rescue(self):
        X = np.zeros((4, 3))
        Y = np.ones((4, 2))
        fld = fit_gsf(X, Y, [0, 0, 0, 0], GpHyperParams(sigma_y=0.0), budget=4, seed=0)
        assert fld.jitter > 0  # singular K was rescued and recorded

    def test_kernel_entries_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 3))
        hyper = GpHyperParams(kappa=1.7, sigma_y=0.2)
        fld = fit_gsf(X, rng.normal(size=(12, 2)), rng.integers(0, 3, 12), hyper, 12, 0)
        K = matern32_matrix(fld.X, fld.X, 1.7) + 0.04 * np.eye(12)
        for i in range(12):
            for j in range(12):
                expect = matern32(fld.X[i], fld.X[j], 1.7) + (0.04 if i == j else 0.0)
                assert abs(K[i, j] - expect) < 1e-12

    def test_factor_of_the_cross_kernel(self):
        """The cached factor is bit-equal to that of matern32_matrix(X, X) +
        sigma_y^2 I, and the cached targets to one triangular solve against it."""
        rng = np.random.default_rng(23)
        X = rng.normal(size=(40, 3)) * 2.0
        Y = rng.normal(size=(40, 3))
        fld = fit_gsf(X, Y, rng.integers(0, 3, 40), GpHyperParams(1.7, 0.2), 40, 0)
        K = matern32_matrix(fld.X, fld.X, 1.7)
        K[np.diag_indices_from(K)] += 0.2**2
        L = np.tril(cho_factor(K, lower=True)[0])
        assert np.array_equal(np.tril(fld.factor), L)
        assert np.array_equal(fld.white_y, solve_triangular(L, fld.Y, lower=True))

    def test_jittered_factor_of_the_cross_kernel(self):
        """A kernel matrix that fails to factor after six columns, its first
        attempt factored in place, is rebuilt exactly for the jittered retry:
        the factor is bit-equal to that of matern32_matrix(X, X) + jitter I."""
        rng = np.random.default_rng(24)
        X = rng.normal(size=(12, 3)) * 2.0
        X[7] = X[6]
        fld = fit_gsf(X, rng.normal(size=(12, 2)), np.zeros(12, int), GpHyperParams(1.7, 0.0),
                      12, 0)
        assert fld.jitter > 0
        K = matern32_matrix(fld.X, fld.X, 1.7) + fld.jitter * np.eye(12)
        assert np.array_equal(np.tril(fld.factor), np.tril(cho_factor(K, lower=True)[0]))

    @pytest.mark.parametrize("m", [1, 7, 127, 128, 256])
    def test_factorize_equals_cho_factor(self, m):
        """`_factorize`'s direct LAPACK factor is `cho_factor(K, lower=True)`'s
        lower triangle bit for bit, with zeros above it, at sizes on both
        sides of where LAPACK starts to thread; and `_solve_lower` is `solve_triangular` bit for bit,
        in its own buffer or in the right-hand side's. The references run on
        one BLAS thread, as the wrappers do."""
        rng = np.random.default_rng(m)
        X = rng.uniform(-8.0, 8.0, (m, 3))
        K = matern32_matrix(X, X, 2.0)
        K[np.diag_indices_from(K)] += 0.1**2
        B = rng.normal(size=(m, 12))
        Bf = np.asfortranarray(rng.normal(size=(m, 50)))
        with gsf._one_blas_thread:
            want = cho_factor(K, lower=True)[0]
            want_b, expect = (solve_triangular(want, b, lower=True) for b in (B, Bf))
        L, jitter = gsf._factorize(gsf._gram(X, 2.0), 1.0 + 0.1**2)
        assert np.array_equal(L, np.tril(want)) and L.flags.f_contiguous and jitter == 0.0
        assert np.array_equal(gsf._solve_lower(L, B), want_b)
        got = gsf._solve_lower(L, Bf, overwrite_b=True)
        assert np.array_equal(got, expect) and np.shares_memory(got, Bf)

    @pytest.mark.parametrize("m", [12, 200])
    def test_jittered_factorize_equals_cho_factor(self, m):
        """A K that factors only with jitter: the retry's factor is that of
        `cho_factor(K + jitter I, lower=True)` bit for bit, at the first jitter
        of the escalation that `cho_factor` itself accepts, on one BLAS thread
        as `_factorize` runs."""
        rng = np.random.default_rng(m)
        X = rng.uniform(-4.0, 4.0, (m, 3))
        X[m // 2:] = X[: m - m // 2]  # every point twice: K is singular
        K = matern32_matrix(X, X, 1.7)
        L, jitter = gsf._factorize(gsf._gram(X, 1.7), 1.0)
        assert jitter > 0
        with gsf._one_blas_thread:
            assert np.array_equal(L, np.tril(cho_factor(K + jitter * np.eye(m), lower=True)[0]))
            for tried in [0.0] + [gsf.JITTER_START * 2.0**k for k in range(40)
                                  if gsf.JITTER_START * 2.0**k < jitter]:
                with pytest.raises(np.linalg.LinAlgError):
                    cho_factor(K + tried * np.eye(m), lower=True)

    def test_noise_shifts_eigenvalues(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 3))
        K0 = matern32_matrix(X, X, 2.0)
        sy2 = 0.25
        e0 = np.sort(np.linalg.eigvalsh(K0))
        e1 = np.sort(np.linalg.eigvalsh(K0 + sy2 * np.eye(10)))
        np.testing.assert_allclose(e1 - e0, sy2, atol=1e-10)

    @pytest.mark.parametrize("n_labels", [2, 4])
    def test_label_count_mismatch_refused(self, n_labels):
        """The draw reads only the labels, so a label count other than the
        point count is refused rather than drawing rows that are not there."""
        with pytest.raises(ValidationError, match=f"{n_labels} labels do not match 3 points"):
            fit_gsf(np.eye(3), np.ones((3, 1)), [0] * n_labels, GpHyperParams(), 1, seed=0)

    def test_empty_sparsification_raises(self):
        # 3 singleton classes, budget 1: every class rounds to 0
        X = np.eye(3)
        with pytest.raises(FitError):
            fit_gsf(X, np.ones((3, 1)), [0, 1, 2], GpHyperParams(), budget=1, seed=0)


def _recording(calls: list, name: str, counts, fn):
    """`fn`, appending (name, the BLAS thread counts) to `calls` at each call."""
    def call(*args, **kwargs):
        calls.append((name, counts()))
        return fn(*args, **kwargs)
    return call


def _field_digests() -> dict[str, str]:
    """sha256 of the factor, mu and Sigma of a fixed, seeded 256-point
    neighbourhood's field, probed at 8 yaws on the default grid."""
    taxonomy = default_taxonomy()
    rng = np.random.default_rng(5)
    X = rng.uniform(-4.0, 4.0, (256, 3))
    labels = rng.integers(0, taxonomy.num_classes, 256)
    Y = rng.normal(size=(256, taxonomy.num_classes))
    fld = fit_gsf(X, Y, labels, GpHyperParams(), budget=256, seed=0)
    pop = grid_probe(fld, taxonomy, RunConfig().gsf.grid,
                     np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False))
    return {name: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
            for name, a in [("factor", fld.factor), ("mu", pop.mu), ("Sigma", pop.Sigma)]}


class TestOneBlasThread:
    """`gsf._one_blas_thread`: every loaded OpenBLAS on one thread inside it,
    the count in effect before restored after it."""

    def test_finds_numpy_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas.lower() or not os.path.exists("/proc/self/maps"):
            pytest.skip(f"numpy's BLAS is {blas}, or there is no /proc")
        assert gsf._loaded_openblas()

    def test_one_thread_inside_earlier_count_after(self, blas_threads):
        with gsf._one_blas_thread:
            assert set(blas_threads()) == {1}
        assert set(blas_threads()) == {2}

    def test_every_lapack_call_on_one_thread(self, blas_threads, taxonomy, monkeypatch):
        """Each `dpotrf` and `dtrtrs` of a fit, a stacked probe and an mIoU
        runs on one thread, and the count is back at two after each."""
        calls = []
        for name in ("dpotrf", "dtrtrs"):
            monkeypatch.setattr(gsf, name, _recording(calls, name, blas_threads,
                                                      getattr(gsf, name)))
        rng = np.random.default_rng(3)
        X = rng.uniform(-3.0, 3.0, (40, 3))
        fld = fit_gsf(X, rng.normal(size=(40, 12)), rng.integers(0, 12, 40), GpHyperParams(),
                      40, 0)
        assert set(blas_threads()) == {2}
        grid_probe(fld, taxonomy, GridSection(), [0.0, 0.5, 1.0])
        assert set(blas_threads()) == {2}
        reconstruction_miou(fld, X, rng.integers(0, 12, 40))
        assert set(blas_threads()) == {2}
        assert [name for name, _ in calls] == ["dpotrf"] + ["dtrtrs"] * 3
        assert all(set(counts) == {1} for _, counts in calls)

    def test_restored_when_body_raises(self, blas_threads, monkeypatch):
        """A K that no jitter up to JITTER_MAX makes positive definite: every
        attempt runs on one thread, and the FitError leaves the count at two."""
        calls = []
        monkeypatch.setattr(gsf, "dpotrf", _recording(calls, "dpotrf", blas_threads, gsf.dpotrf))
        with pytest.raises(FitError):
            gsf._factorize(np.zeros(6), -1.0)  # K = -I, 4 x 4
        assert len(calls) > 1 and all(set(counts) == {1} for _, counts in calls)
        assert set(blas_threads()) == {2}

    def test_nested_scopes(self, blas_threads):
        with gsf._one_blas_thread:
            with gsf._one_blas_thread:
                assert set(blas_threads()) == {1}
            assert set(blas_threads()) == {1}
        assert set(blas_threads()) == {2}

    @pytest.mark.parametrize("first_out", [0, 1])
    def test_two_threads_interleaved(self, blas_threads, first_out):
        """Thread 0 enters, then thread 1; either leaves first. The count
        stays one while either is inside and is two once both have left."""
        entered = [threading.Event(), threading.Event()]
        release = [threading.Event(), threading.Event()]

        def hold(k):
            with gsf._one_blas_thread:
                entered[k].set()
                return release[k].wait(5.0)

        with ThreadPoolExecutor(2) as pool:
            futures = []
            for k in (0, 1):
                futures.append(pool.submit(hold, k))
                assert entered[k].wait(5.0)
            assert set(blas_threads()) == {1}
            release[first_out].set()
            assert futures[first_out].result(timeout=5.0)
            assert set(blas_threads()) == {1}
            release[1 - first_out].set()
            assert futures[1 - first_out].result(timeout=5.0)
        assert set(blas_threads()) == {2}

    def test_many_threads_stress(self, blas_threads):
        """More Python threads than cores enter and leave many times with a
        short switch interval: inside, the count is always one; after, the
        depth is zero and the count two, which a lost update would break."""
        def churn():
            seen = set()
            for _ in range(200):
                with gsf._one_blas_thread:
                    seen.update(blas_threads())
            return seen

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                seen = [f.result(timeout=30.0) for f in [pool.submit(churn) for _ in range(6)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(s == {1} for s in seen)
        assert gsf._one_blas_thread._depth == 0
        assert set(blas_threads()) == {2}

    def test_no_op_without_openblas(self, blas_threads, monkeypatch):
        monkeypatch.setattr(gsf, "_loaded_openblas", lambda: ())
        with gsf._one_blas_thread:
            assert set(blas_threads()) == {2}
        assert set(blas_threads()) == {2}

    def test_fields_independent_of_blas_threads(self, blas_threads):
        """A field's factor, mu and Sigma have the same bytes in this process,
        its BLAS at two threads, as in one started with one BLAS thread."""
        here = _field_digests()
        tests = Path(__file__).resolve().parent
        src = str(Path(gsf.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, str(tests),
                                                           os.environ.get("PYTHONPATH")]))}
        code = "import test_gsf; print(test_gsf._field_digests())"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == str(here)


class TestPredict:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(-3, 3, (8, 3))
        Y = rng.normal(size=(8, 2))
        fld = fit_gsf(X, Y, rng.integers(0, 2, 8), GpHyperParams(sigma_y=0.0), 8, 0)
        mu, Sigma = gsf_predict(fld, X)
        assert np.abs(mu - Y).max() < 1e-8
        assert np.abs(np.diag(Sigma)).max() < 1e-8

    def test_prior_reversion_far_away(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, (6, 3))
        Y = rng.normal(size=(6, 2))
        fld = fit_gsf(X, Y, rng.integers(0, 2, 6), GpHyperParams(kappa=1.0), 6, 0)
        Q = np.array([[500.0, 0.0, 0.0]])
        mu, Sigma = gsf_predict(fld, Q)
        assert np.abs(mu).max() < 1e-6
        assert abs(Sigma[0, 0] - 1.0) < 1e-6

    def test_dense_inverse_oracle(self):
        rng = np.random.default_rng(12)
        X = rng.uniform(-2, 2, (6, 3))
        Y = rng.normal(size=(6, 2))
        hyper = GpHyperParams(kappa=1.2, sigma_y=0.15)
        fld = fit_gsf(X, Y, rng.integers(0, 2, 6), hyper, 6, 0)
        Q = rng.uniform(-2, 2, (4, 3))
        mu, Sigma = gsf_predict(fld, Q)
        K = matern32_matrix(fld.X, fld.X, 1.2) + 0.15**2 * np.eye(6)
        kqx = matern32_matrix(Q, fld.X, 1.2)
        mu_o = kqx @ inv(K) @ fld.Y
        S_o = matern32_matrix(Q, Q, 1.2) - kqx @ inv(K) @ kqx.T
        assert np.abs(mu - mu_o).max() < 1e-9
        assert np.abs(Sigma - 0.5 * (S_o + S_o.T)).max() < 1e-9

    def test_stacked_dense_inverse_oracle(self):
        """A (Y,G,3) stack predicts every member as the explicit inverse does."""
        rng = np.random.default_rng(16)
        hyper = GpHyperParams(kappa=1.2, sigma_y=0.15)
        for m, y, g, d in [(6, 3, 4, 2), (20, 1, 25, 12), (9, 5, 1, 3)]:
            X = rng.uniform(-2, 2, (m, 3))
            fld = fit_gsf(X, rng.normal(size=(m, d)), rng.integers(0, 2, m), hyper, m, 0)
            Qs = rng.uniform(-2, 2, (y, g, 3))
            mu, Sigma = gsf_predict(fld, Qs)
            assert mu.shape == (y, g, d) and Sigma.shape == (y, g, g)
            K_inv = inv(matern32_matrix(fld.X, fld.X, 1.2) + 0.15**2 * np.eye(m))
            for k, Q in enumerate(Qs):
                kqx = matern32_matrix(Q, fld.X, 1.2)
                S_o = matern32_matrix(Q, Q, 1.2) - kqx @ K_inv @ kqx.T
                assert np.abs(mu[k] - kqx @ K_inv @ fld.Y).max() < 1e-9
                assert np.abs(Sigma[k] - 0.5 * (S_o + S_o.T)).max() < 1e-9

    def test_memoised_prior_follows_points_and_kappa(self):
        """The prior k(Q,Q) is memoised on the points' values and kappa: points
        edited in place, and a field of another kappa, get their own."""
        rng = np.random.default_rng(17)
        X, Y = rng.uniform(-2, 2, (8, 3)), rng.normal(size=(8, 2))
        Q = rng.uniform(-2, 2, (5, 3))
        for kappa in (1.2, 0.7):
            fld = fit_gsf(X, Y, rng.integers(0, 2, 8), GpHyperParams(kappa, 0.15), 8, 0)
            K_inv = inv(matern32_matrix(fld.X, fld.X, kappa) + 0.15**2 * np.eye(8))
            for _ in range(2):
                _, Sigma = gsf_predict(fld, Q)
                kqx = matern32_matrix(Q, fld.X, kappa)
                S_o = matern32_matrix(Q, Q, kappa) - kqx @ K_inv @ kqx.T
                assert np.abs(Sigma - 0.5 * (S_o + S_o.T)).max() < 1e-9
                Q[0] += 1.0

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(-2, 2, (30, 3))
        fld = fit_gsf(X, rng.normal(size=(30, 3)), rng.integers(0, 3, 30),
                      GpHyperParams(sigma_y=0.05), 30, 0)
        _, Sigma = gsf_predict(fld, rng.uniform(-3, 3, (20, 3)))
        assert np.diag(Sigma).min() >= -1e-8


class TestGridProbe:
    def test_single_point_grid(self, taxonomy):
        fld = fit_gsf(np.zeros((1, 3)), one_hot_logits([7], 12), [7],
                      GpHyperParams(), 1, 0)
        pop = grid_probe(fld, taxonomy, GridSection(nx=1, ny=1))
        assert pop.Sigma.shape == (1, 1)
        assert pop.grid.shape == (1, 3)

    def test_grid_centering(self, taxonomy):
        fld = fit_gsf(np.zeros((1, 3)), one_hot_logits([7], 12), [7],
                      GpHyperParams(), 1, 0)
        pop = grid_probe(fld, taxonomy, GridSection(nx=3, ny=3, dx=1.0, dy=1.0))
        xs = sorted(set(np.round(pop.grid[:, 0], 9)))
        ys = sorted(set(np.round(pop.grid[:, 1], 9)))
        assert xs == [-1.0, 0.0, 1.0] and ys == [-1.0, 0.0, 1.0]
        assert (pop.grid[:, 2] == 0).all()

    def test_stability_weights_from_argmax(self, taxonomy):
        car, pole = taxonomy.id_of("car"), taxonomy.id_of("pole")
        X = np.array([[-5.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        Y = one_hot_logits([car, pole], 12)
        fld = fit_gsf(X, Y, [car, pole], GpHyperParams(), 2, 0)
        pop = grid_probe(fld, taxonomy, GridSection(nx=2, ny=1, dx=10.0, dy=1.0))
        assert pop.stability_weights[0] == 0.5  # argmax car
        assert pop.stability_weights[1] == 1.0  # argmax pole

    def test_population_psd(self, taxonomy):
        rng = np.random.default_rng(14)
        X = rng.uniform(-4, 4, (40, 3))
        fld = fit_gsf(X, rng.normal(size=(40, 12)), rng.integers(0, 12, 40),
                      GpHyperParams(sigma_y=0.1), 40, 0)
        pop = grid_probe(fld, taxonomy, GridSection())
        assert np.linalg.eigvalsh(pop.Sigma).min() >= -1e-10


    def test_yaw_array_grid_equals_per_yaw_grids(self):
        yaws = [0.0, 0.3, np.pi / 2, 2.0 * np.pi * 5 / 8, -1.1]
        for grid in [GridSection(), GridSection(nx=4, ny=3, dx=1.5, dy=0.7, z_mode=0.25)]:
            stack = probe_grid(grid, np.array(yaws))
            assert stack.shape == (len(yaws), probe_grid(grid).shape[0], 3)
            for k, yaw in enumerate(yaws):
                np.testing.assert_array_equal(stack[k], probe_grid(grid, yaw))

    def test_yaw_stack_members_equal_single_probes(self, taxonomy):
        rng = np.random.default_rng(17)
        fld = fit_gsf(rng.uniform(-6, 6, (60, 3)), rng.normal(size=(60, 12)),
                      rng.integers(0, 12, 60), GpHyperParams(), 60, 0)
        yaws = [0.0, 0.4, 2.0 * np.pi / 3]
        grid = GridSection(ny=3, dx=2.0)
        stack = grid_probe(fld, taxonomy, grid, yaws)
        assert stack.Sigma.shape == (3, 15, 15)
        for k, yaw in enumerate(yaws):
            one = grid_probe(fld, taxonomy, grid, yaw)
            assert np.abs(stack.grid[k] - one.grid).max() < 1e-12
            assert np.abs(stack.mu[k] - one.mu).max() < 1e-12
            assert np.abs(stack.Sigma[k] - one.Sigma).max() < 1e-12
            np.testing.assert_array_equal(stack.stability_weights[k], one.stability_weights)


def _random_fields(n=3, seed=19):
    rng = np.random.default_rng(seed)
    return [fit_gsf(rng.uniform(-6, 6, (60, 3)), rng.normal(size=(60, 12)),
                    rng.integers(0, 12, 60), GpHyperParams(), 60, 0) for _ in range(n)]


def _probed_counts(monkeypatch) -> list:
    """The number of yaws each later `gsf_predict` call predicts at."""
    counts = []

    def counting(field, Q):
        counts.append(1 if np.ndim(Q) == 2 else len(Q))
        return gsf_predict(field, Q)

    monkeypatch.setattr(gsf, "gsf_predict", counting)
    return counts


def _assert_members_equal_fresh(stack, fresh):
    for k, want in enumerate(fresh):
        assert np.abs(stack.grid[k] - want.grid).max() < 1e-12
        assert np.abs(stack.mu[k] - want.mu).max() < 1e-12
        assert np.abs(stack.Sigma[k] - want.Sigma).max() < 1e-12
        assert np.abs(stack.stability_weights[k] - want.stability_weights).max() < 1e-12


class TestYawReuse:
    """A yaw stack, probed at the yaws whose grid is not a reordering of an
    earlier one and gathered, against a fresh probe at every yaw."""

    @pytest.mark.parametrize("nx, ny, yaw_samples, probed", [
        (5, 5, 4, 1),
        (5, 5, 6, 3),
        (5, 5, 8, 2),
        (5, 3, 8, 4),
        (5, 5, 3, 3),
        (2, 1, 8, 4),  # each 45-degree grid's nearest points are a reordering, but far
    ])
    def test_plan_matches_fresh_probes(self, taxonomy, monkeypatch, nx, ny, yaw_samples,
                                       probed):
        grid = GridSection(nx=nx, ny=ny)
        yaws = [2.0 * np.pi * k / yaw_samples for k in range(yaw_samples)]
        counts = _probed_counts(monkeypatch)
        for field in _random_fields():
            counts.clear()
            stack = grid_probe(field, taxonomy, grid, yaws)
            assert counts == [probed]
            assert stack.mu.shape[0] == yaw_samples
            _assert_members_equal_fresh(stack, [grid_probe(field, taxonomy, grid, y)
                                                for y in yaws])

    def test_reuse_of_a_later_probed_yaw(self, taxonomy, monkeypatch):
        """Yaw 3 reorders yaw 2, the second probed member."""
        field = _random_fields(n=1)[0]
        grid = GridSection()
        yaws = [0.0, np.pi, 0.4, np.pi + 0.4]
        counts = _probed_counts(monkeypatch)
        stack = grid_probe(field, taxonomy, grid, yaws)
        assert counts == [2]
        _assert_members_equal_fresh(stack, [grid_probe(field, taxonomy, grid, y)
                                            for y in yaws])

    def test_plan_follows_mutated_grid(self, taxonomy, monkeypatch):
        """The plan is memoised on the grid's values: a GridSection changed
        between two calls gets the plan of its new values."""
        field = _random_fields(n=1)[0]
        grid = GridSection()
        yaws = [2.0 * np.pi * k / 8 for k in range(8)]
        counts = _probed_counts(monkeypatch)
        assert grid_probe(field, taxonomy, grid, yaws).mu.shape[1] == 25
        grid.nx = 3
        stack = grid_probe(field, taxonomy, grid, yaws)
        assert counts == [2, 4]  # 5x5 at 8 yaws probes 2; 3x5 probes 4
        assert stack.mu.shape[1] == 15
        _assert_members_equal_fresh(stack, [grid_probe(field, taxonomy, grid, y)
                                            for y in yaws])

    def test_shared_plan_is_read_only(self, taxonomy):
        field = _random_fields(n=1)[0]
        yaws = [2.0 * np.pi * k / 8 for k in range(8)]
        a = grid_probe(field, taxonomy, GridSection(), yaws)
        plan = gsf._yaw_plan(astuple(GridSection()), tuple(yaws))
        assert not any(arr.flags.writeable for arr in plan)
        a.grid[0, 0, 0] = 99.0  # a population owns its arrays
        b = grid_probe(field, taxonomy, GridSection(), yaws)
        assert b.grid[0, 0, 0] != 99.0


def _clamp_reference(S):
    """One matrix's negative eigenvalues clamped to 0, written out."""
    vals, vecs = np.linalg.eigh(S)
    if vals[0] >= 0.0:
        return S
    out = vecs @ np.diag(np.maximum(vals, 0.0)) @ vecs.T
    return 0.5 * (out + out.T)


class TestClampPsd:
    def _members(self, rng, g=6):
        A = rng.normal(size=(g, g))
        B = rng.normal(size=(g, 3))
        Q, _ = np.linalg.qr(rng.normal(size=(g, g)))
        return {
            "definite": A @ A.T + np.eye(g),
            "singular": B @ B.T,  # rank 3: PSD, not definite
            "indefinite": (Q * [-0.5, -1e-3, 0.2, 1.0, 2.0, 3.0]) @ Q.T,
            "barely-indefinite": (Q * [-1e-9, 0.1, 0.2, 1.0, 2.0, 3.0]) @ Q.T,
        }

    def test_stack_equals_per_member_reference(self):
        rng = np.random.default_rng(18)
        m = self._members(rng)
        for names in [("definite", "definite"), ("definite", "singular", "indefinite"),
                      ("indefinite", "definite"), ("singular",),
                      ("barely-indefinite", "definite", "indefinite")]:
            stack = np.stack([m[n] for n in names])
            got = _clamp_psd(stack)
            for k, n in enumerate(names):
                assert np.abs(got[k] - _clamp_reference(m[n])).max() < 1e-12
                assert np.linalg.eigvalsh(got[k]).min() >= -1e-12
            assert np.array_equal(stack, np.stack([m[n] for n in names]))  # input untouched

    def test_single_matrix(self):
        m = self._members(np.random.default_rng(19))
        for S in m.values():
            assert np.abs(_clamp_psd(S) - _clamp_reference(S)).max() < 1e-12
        assert _clamp_psd(m["definite"]) is m["definite"]


class TestStabilityMask:
    def test_identity_weights(self):
        S = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_array_equal(apply_stability_mask(S, [1.0, 1.0]), S)

    def test_diagonal_case(self):
        out = apply_stability_mask(np.eye(2), [0.25, 1.0])
        np.testing.assert_allclose(out, np.diag([0.25, 1.0]))

    def test_psd_preserved(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            S = A @ A.T
            w = rng.uniform(0.05, 1.0, 6)
            out = apply_stability_mask(S, w)
            assert np.abs(out - out.T).max() < 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            apply_stability_mask(np.eye(2), [0.5, 0.0])

    def test_stack_equals_slices(self):
        rng = np.random.default_rng(16)
        A = rng.normal(size=(8, 6, 6))
        S = A @ np.swapaxes(A, -1, -2)
        w = rng.uniform(0.05, 1.0, (8, 6))
        out = apply_stability_mask(S, w)
        assert out.shape == S.shape
        for k in range(8):
            np.testing.assert_array_equal(out[k], apply_stability_mask(S[k], w[k]))
        with pytest.raises(ValidationError, match="does not match"):
            apply_stability_mask(S, w[:, :5])


class TestMiou:
    def _field_predicting(self, targets):
        # well-separated points + sigma_y=0: prediction at the points = targets
        n = len(targets)
        X = np.column_stack([np.arange(n) * 10.0, np.zeros(n), np.zeros(n)])
        Y = one_hot_logits(targets, int(max(targets)) + 1)
        return fit_gsf(X, Y, targets, GpHyperParams(sigma_y=0.0), n, 0), X

    def test_perfect(self):
        fld, X = self._field_predicting([0, 1, 0, 1])
        assert reconstruction_miou(fld, X, [0, 1, 0, 1]) == 1.0

    def test_disjoint(self):
        fld, X = self._field_predicting([1, 1, 1, 1])
        assert reconstruction_miou(fld, X, [0, 0, 0, 0]) == 0.0

    def test_hand_computed_case(self):
        # pred [A,A,B,B] vs truth [A,A,A,B]: IoU_A=2/3, IoU_B=1/2 -> 7/12
        fld, X = self._field_predicting([0, 0, 1, 1])
        assert abs(reconstruction_miou(fld, X, [0, 0, 0, 1]) - 7.0 / 12.0) < 1e-12
