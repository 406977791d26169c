import numpy as np
import pytest

from sfglab.datasets import GmmSpec, make_simplex_gmm, make_two_gaussian
from sfglab.oracle import (classifier_grad, classify_region, full_spectrum, hessian,
                           log_density, score, smooth)


def random_mixture(rng, full_cov_prob=0.5, max_dim=5, max_k=4):
    k = int(rng.integers(1, max_k + 1))
    n = int(rng.integers(1, max_dim + 1))
    w = rng.random(k) + 0.1
    w /= w.sum()
    means = rng.standard_normal((k, n)) * 3
    if rng.random() < full_cov_prob and n > 1:
        covs = np.empty((k, n, n))
        for i in range(k):
            a = rng.standard_normal((n, n))
            covs[i] = a @ a.T + (0.1 + rng.random()) * np.eye(n)
    else:
        covs = rng.random(k) * 2 + 0.05
    return GmmSpec(w, means, covs)


def fd_gradient(f, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestSmooth:
    def test_sigma_zero_is_identity(self):
        spec = make_simplex_gmm(3, 4, 0.3)
        g = smooth(spec, 0.0)
        assert np.allclose(g.effective_covariances(), spec.covariances)

    def test_isotropic_addition(self):
        spec = make_simplex_gmm(16, 64, 0.2)
        g = smooth(spec, 1.0)
        assert np.allclose(g.effective_covariances(), 1.04)

    def test_two_gaussian_appendix_regime(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        g = smooth(spec, 2.0)  # additive variance sigma^2 = 4
        assert np.allclose(g.effective_covariances(), 5.0)


class TestLogDensity:
    def test_single_standard_gaussian_at_origin(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 2)), [1.0]), 0.0)
        assert np.isclose(log_density(g, np.zeros(2)), -np.log(2 * np.pi))

    def test_symmetry_of_equal_mixture(self):
        spec = make_two_gaussian(3.0, 0.7, 3)
        g = smooth(spec, 0.4)
        assert np.isclose(log_density(g, spec.means[0]), log_density(g, spec.means[1]))

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            spec = random_mixture(rng)
            g = smooth(spec, float(rng.random()))
            x = rng.standard_normal(spec.dim)
            covs = g.effective_covariances()
            total = 0.0
            for i in range(spec.n_components):
                cov = np.eye(spec.dim) * covs[i] if covs.ndim == 1 else covs[i]
                diff = x - spec.means[i]
                quad = diff @ np.linalg.solve(cov, diff)
                det = np.linalg.slogdet(cov)[1]
                total += spec.weights[i] * np.exp(-0.5 * (spec.dim * np.log(2 * np.pi) + det + quad))
            assert np.isclose(log_density(g, x), np.log(total), rtol=1e-10)

    def test_dimension_mismatch(self):
        g = smooth(make_simplex_gmm(2, 3, 0.5), 0.1)
        with pytest.raises(ValueError, match="dimension"):
            log_density(g, np.zeros(2))


class TestScore:
    def test_single_gaussian_closed_form(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 4)), [1.0]), 0.0)
        x = np.linspace(-1, 2, 4)
        assert np.allclose(score(g, x), -x)

    def test_symmetric_midpoint_zero(self):
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.3)
        assert np.abs(score(g, np.zeros(2))).max() < 1e-12

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            spec = random_mixture(rng)
            g = smooth(spec, float(rng.random()))
            x = rng.standard_normal(spec.dim) * 2
            fd = fd_gradient(lambda y: log_density(g, y), x)
            assert np.abs(score(g, x) - fd).max() < 1e-5


class TestHessian:
    def test_single_gaussian_constant(self):
        v = 0.5
        g = smooth(GmmSpec([1.0], np.zeros((1, 3)), [v]), 0.0)
        for x in (np.zeros(3), np.ones(3), np.array([3.0, -1.0, 0.2])):
            assert np.allclose(hessian(g, x), -np.eye(3) / v)

    def test_two_gaussian_closed_form_at_origin(self):
        # 1D section along e1 is log(2 cosh(mu x / s^2)) - x^2/(2 s^2) + const:
        # second derivative at 0 is -1/s^2 + mu^2/s^4 = 3 for mu=2, s=1.
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.0)
        h = hessian(g, np.zeros(2))
        vals, vecs = full_spectrum(h)
        assert np.isclose(vals[0], 3.0)
        assert np.isclose(vals[1], -1.0)
        assert abs(abs(vecs[0, 0]) - 1.0) < 1e-9

    def test_matches_score_jacobian(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            spec = random_mixture(rng)
            g = smooth(spec, float(rng.random()))
            x = rng.standard_normal(spec.dim) * 2
            h = hessian(g, x)
            fd = np.zeros_like(h)
            step = 1e-5
            for i in range(spec.dim):
                e = np.zeros(spec.dim)
                e[i] = step
                fd[:, i] = (score(g, x + e) - score(g, x - e)) / (2 * step)
            assert np.abs(h - fd).max() < 1e-4

    def test_sigma_scaled_eigenvalue_bound(self):
        # min eig of sigma^2 * hessian of any smoothed mixture stays >= -1
        rng = np.random.default_rng(3)
        for _ in range(200):
            spec = random_mixture(rng)
            sig = float(rng.random() * 3 + 0.02)
            g = smooth(spec, sig)
            x = rng.standard_normal(spec.dim) * 4
            lam_min = full_spectrum(hessian(g, x))[0][-1]
            assert sig * sig * lam_min >= -1.0 - 1e-9

    @pytest.mark.parametrize("full_cov_prob", [0.0, 1.0], ids=["isotropic", "full_covariance"])
    def test_batch_rows_match_single_points(self, full_cov_prob):
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = random_mixture(rng, full_cov_prob=full_cov_prob)
            g = smooth(spec, float(rng.random()))
            xs = rng.standard_normal((6, spec.dim)) * 2
            batch = hessian(g, xs)
            assert batch.shape == (6, spec.dim, spec.dim)
            for i, x in enumerate(xs):
                single = hessian(g, x)
                assert single.shape == (spec.dim, spec.dim)
                assert np.allclose(batch[i], single, rtol=1e-12, atol=1e-12)


class TestFullSpectrum:
    def test_diagonal(self):
        vals, vecs = full_spectrum(np.diag([3.0, -1.0]))
        assert vals.tolist() == [3.0, -1.0]
        assert abs(abs(vecs[0, 0]) - 1) < 1e-12
        assert abs(abs(vecs[1, 1]) - 1) < 1e-12

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        h = a + a.T
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        vals_h = full_spectrum(h)[0]
        vals_q = full_spectrum(q @ h @ q.T)[0]
        assert np.allclose(vals_h, vals_q, atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 17):
            a = rng.standard_normal((n, n))
            h = a + a.T
            vals, vecs = full_spectrum(h)
            recon = sum(lam * np.outer(v, v) for lam, v in zip(vals, vecs.T))
            assert np.linalg.norm(recon - h) < 1e-8

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 7))
        vecs = full_spectrum(a + a.T)[1]
        assert np.abs(vecs.T @ vecs - np.eye(7)).max() < 1e-8

    def test_empty_matrix_has_no_pairs(self):
        vals, vecs = full_spectrum(np.zeros((0, 0)))
        assert vals.shape == (0,) and vecs.shape == (0, 0)

    def test_asymmetric_rejected(self):
        asym = np.array([[0.0, 1.0], [0.0, 0.0]])
        for h in (asym, np.stack([np.eye(2), asym, np.eye(2)])):  # alone and inside a stack
            with pytest.raises(ValueError, match="asymmetric"):
                full_spectrum(h)

    def test_matches_lapack(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        h = a + a.T
        mine = full_spectrum(h)[0]
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.abs(mine - ref).max() < 1e-9

    def test_stack_rows_match_single_matrices(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 5):
            a = rng.standard_normal((9, n, n))
            stack = a + np.swapaxes(a, 1, 2)
            vals, vecs = full_spectrum(stack)
            assert vals.shape == (9, n) and vecs.shape == (9, n, n)
            for i, h in enumerate(stack):
                single_vals, single_vecs = full_spectrum(h)
                assert np.array_equal(vals[i], single_vals)
                assert np.array_equal(vecs[i], single_vecs)


class TestClassifierGrad:
    def test_points_toward_own_class(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        g = smooth(spec, 0.5)
        grad = classifier_grad(g, np.zeros(2), 0)
        assert grad[0] < 0  # class 0 sits at -2 e1
        assert abs(grad[1]) < 1e-12

    def test_posterior_weighted_identity(self):
        # p0 grad log p0 + p1 grad log p1 = 0 pointwise for two classes
        spec = make_two_gaussian(3.0, 0.8, 2)
        g = smooth(spec, 0.7)
        rng = np.random.default_rng(8)
        from sfglab.oracle import _log_joint, _responsibilities  # posterior weights

        for _ in range(20):
            x = rng.standard_normal(2) * 3
            lj = _log_joint(g, x[None])
            post = _responsibilities(lj)[0]
            total = post[0] * classifier_grad(g, x, 0) + post[1] * classifier_grad(g, x, 1)
            assert np.abs(total).max() < 1e-10

    def test_matches_log_posterior_finite_difference(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        g = smooth(spec, 0.9)
        sub = GmmSpec([1.0], spec.means[:1], spec.covariances[:1])
        g_sub = smooth(sub, 0.9)
        rng = np.random.default_rng(9)
        for _ in range(10):
            x = rng.standard_normal(2) * 2

            def log_post(y):
                return log_density(g_sub, y) - log_density(g, y)

            assert np.abs(classifier_grad(g, x, 0) - fd_gradient(log_post, x)).max() < 1e-5

    def test_unknown_class_rejected(self):
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.5)
        with pytest.raises(ValueError, match="unknown class"):
            classifier_grad(g, np.zeros(2), 7)

    def test_equals_conditional_minus_marginal_score(self):
        rng = np.random.default_rng(10)
        spec = make_simplex_gmm(4, 6, 0.4)
        g = smooth(spec, 0.6)
        sub = GmmSpec([1.0], spec.means[2:3], spec.covariances[2:3])
        g_sub = smooth(sub, 0.6)
        for _ in range(10):
            x = rng.standard_normal(6)
            expected = score(g_sub, x) - score(g, x)
            assert np.abs(classifier_grad(g, x, 2) - expected).max() < 1e-10


class TestClassifyRegion:
    def test_single_gaussian_never_saddle(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 2)), [0.5]), 0.3)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal(2) * 4
            assert classify_region(g, x) != "saddle_region"

    def test_separated_two_gaussian_midpoint_is_saddle(self):
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.0)
        assert classify_region(g, np.zeros(2)) == "saddle_region"

    def test_merged_two_gaussian_midpoint_is_mode(self):
        # mu = 0.5, s = 1: top eigenvalue -1 + 0.25 < 0 and zero score
        g = smooth(make_two_gaussian(1.0, 1.0, 2), 0.0)
        assert classify_region(g, np.zeros(2)) == "mode"

    def test_off_mode_point_is_other(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 2)), [1.0]), 0.0)
        assert classify_region(g, np.array([2.0, 0.0])) == "other"

    def test_grad_tol_validation(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 2)), [1.0]), 0.0)
        with pytest.raises(ValueError):
            classify_region(g, np.zeros(2), grad_tol=0.0)

    @pytest.mark.parametrize("full_cov_prob", [0.0, 1.0], ids=["isotropic", "full_covariance"])
    def test_batch_labels_match_single_points(self, full_cov_prob):
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(12):
            spec = random_mixture(rng, full_cov_prob=full_cov_prob)
            g = smooth(spec, float(rng.random()))
            xs = np.vstack([rng.standard_normal((8, spec.dim)) * 2, spec.means])
            labels = classify_region(g, xs)
            assert labels.shape == (len(xs),)
            assert labels.tolist() == [classify_region(g, x) for x in xs]
            seen.update(labels.tolist())
        assert seen == {"saddle_region", "mode", "other"}
