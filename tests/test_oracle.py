import tracemalloc
import warnings

import numpy as np
import pytest

from sfglab.datasets import (Fractal, FractalSpec, GmmSpec, make_simplex_gmm, make_two_gaussian,
                             sample_gmm)
from sfglab import oracle
from sfglab.evaluation import make_grid
from sfglab.oracle import (_kernel, _logsumexp, _responsibilities, classifier_grad, classify_region,
                           full_spectrum, hessian, log_density, score, smooth)


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
        assert np.isclose(log_density(g, np.zeros((1, 2)))[0], -np.log(2 * np.pi))

    def test_symmetry_of_equal_mixture(self):
        spec = make_two_gaussian(3.0, 0.7, 3)
        g = smooth(spec, 0.4)
        assert np.isclose(log_density(g, spec.means[:1])[0], log_density(g, spec.means[1:2])[0])

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
            assert np.isclose(log_density(g, x[None])[0], np.log(total), rtol=1e-10)

    def test_dimension_mismatch(self):
        g = smooth(make_simplex_gmm(2, 3, 0.5), 0.1)
        with pytest.raises(ValueError, match="dimension"):
            log_density(g, np.zeros((1, 2)))


class TestScore:
    def test_single_gaussian_closed_form(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 4)), [1.0]), 0.0)
        x = np.linspace(-1, 2, 4)[None]
        assert np.allclose(score(g, x), -x)

    def test_symmetric_midpoint_zero(self):
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.3)
        assert np.abs(score(g, np.zeros((1, 2)))).max() < 1e-12

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            spec = random_mixture(rng)
            g = smooth(spec, float(rng.random()))
            x = rng.standard_normal(spec.dim) * 2
            fd = fd_gradient(lambda y: log_density(g, y[None])[0], x)
            assert np.abs(score(g, x[None])[0] - fd).max() < 1e-5


    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.5])
    def test_fractal_mixture_matches_finite_difference(self, sigma):
        # thin components: precisions up to 1 / jitter^2 = 1e4
        frac = Fractal(FractalSpec(5, np.pi / 5, 0.75, 0.01))
        g = smooth(frac.gmm, sigma)
        xs = np.concatenate([frac.sample(20, seed=2).points, [[0.0, 0.5], [3.0, -2.0]]])
        for x in xs:
            fd = fd_gradient(lambda y: log_density(g, y[None])[0], x, h=1e-6)
            s = score(g, x[None])[0]
            assert np.abs(s - fd).max() < 1e-4 * max(1.0, np.abs(s).max())
        for class_id in (0, 1):
            assert np.isfinite(classifier_grad(g, xs, class_id)).all()


class TestHessian:
    def test_single_gaussian_constant(self):
        v = 0.5
        g = smooth(GmmSpec([1.0], np.zeros((1, 3)), [v]), 0.0)
        for x in (np.zeros(3), np.ones(3), np.array([3.0, -1.0, 0.2])):
            assert np.allclose(hessian(g, x[None])[0], -np.eye(3) / v)

    def test_two_gaussian_closed_form_at_origin(self):
        # 1D section along e1 is log(2 cosh(mu x / s^2)) - x^2/(2 s^2) + const:
        # second derivative at 0 is -1/s^2 + mu^2/s^4 = 3 for mu=2, s=1.
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.0)
        h = hessian(g, np.zeros((1, 2)))
        vals, vecs = (a[0] for a in full_spectrum(h))
        assert np.isclose(vals[0], 3.0)
        assert np.isclose(vals[1], -1.0)
        assert abs(abs(vecs[0, 0]) - 1.0) < 1e-9

    def test_matches_score_jacobian(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            spec = random_mixture(rng)
            g = smooth(spec, float(rng.random()))
            x = rng.standard_normal(spec.dim) * 2
            h = hessian(g, x[None])[0]
            fd = np.zeros_like(h)
            step = 1e-5
            for i in range(spec.dim):
                e = np.zeros(spec.dim)
                e[i] = step
                fd[:, i] = (score(g, (x + e)[None])[0] - score(g, (x - e)[None])[0]) / (2 * step)
            assert np.abs(h - fd).max() < 1e-4

    def test_sigma_scaled_eigenvalue_bound(self):
        # min eig of sigma^2 * hessian of any smoothed mixture stays >= -1
        rng = np.random.default_rng(3)
        for _ in range(200):
            spec = random_mixture(rng)
            sig = float(rng.random() * 3 + 0.02)
            g = smooth(spec, sig)
            x = rng.standard_normal((1, spec.dim)) * 4
            lam_min = full_spectrum(hessian(g, x))[0][0, -1]
            assert sig * sig * lam_min >= -1.0 - 1e-9

    @pytest.mark.parametrize("full_cov_prob", [0.0, 1.0], ids=["isotropic", "full_covariance"])
    def test_batch_rows_match_single_points(self, full_cov_prob):
        # a single point is a one-row batch; each row of an N-row batch matches it
        rng = np.random.default_rng(8)
        for _ in range(10):
            spec = random_mixture(rng, full_cov_prob=full_cov_prob)
            g = smooth(spec, float(rng.random()))
            xs = rng.standard_normal((6, spec.dim)) * 2
            batch = hessian(g, xs)
            assert batch.shape == (6, spec.dim, spec.dim)
            for i in range(len(xs)):
                one = hessian(g, xs[i:i + 1])
                assert one.shape == (1, spec.dim, spec.dim)
                assert np.allclose(batch[i], one[0], rtol=1e-12, atol=1e-12)


class TestFullSpectrum:
    def test_diagonal(self):
        vals, vecs = full_spectrum(np.diag([3.0, -1.0])[None])
        assert vals.tolist() == [[3.0, -1.0]]
        assert abs(abs(vecs[0, 0, 0]) - 1) < 1e-12
        assert abs(abs(vecs[0, 1, 1]) - 1) < 1e-12

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        h = a + a.T
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        vals_h = full_spectrum(h[None])[0]
        vals_q = full_spectrum((q @ h @ q.T)[None])[0]
        assert np.allclose(vals_h, vals_q, atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 17):
            a = rng.standard_normal((n, n))
            h = a + a.T
            vals, vecs = (a[0] for a in full_spectrum(h[None]))
            recon = sum(lam * np.outer(v, v) for lam, v in zip(vals, vecs.T))
            assert np.linalg.norm(recon - h) < 1e-8

    def test_orthonormal_vectors(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 7))
        vecs = full_spectrum((a + a.T)[None])[1][0]
        assert np.abs(vecs.T @ vecs - np.eye(7)).max() < 1e-8

    def test_empty_matrix_has_no_pairs(self):
        vals, vecs = full_spectrum(np.zeros((1, 0, 0)))
        assert vals.shape == (1, 0) and vecs.shape == (1, 0, 0)

    def test_asymmetric_rejected(self):
        asym = np.array([[0.0, 1.0], [0.0, 0.0]])
        for h in (asym[None], np.stack([np.eye(2), asym, np.eye(2)])):  # alone and inside a stack
            with pytest.raises(ValueError, match="asymmetric"):
                full_spectrum(h)

    def test_matches_lapack(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 12))
        h = a + a.T
        mine = full_spectrum(h[None])[0][0]
        ref = np.sort(np.linalg.eigvalsh(h))[::-1]
        assert np.abs(mine - ref).max() < 1e-9

    def test_stack_rows_match_single_matrices(self):
        # a single matrix is a one-matrix stack; each matrix of a stack matches it
        rng = np.random.default_rng(12)
        for n in (1, 2, 5):
            a = rng.standard_normal((9, n, n))
            stack = a + np.swapaxes(a, 1, 2)
            vals, vecs = full_spectrum(stack)
            assert vals.shape == (9, n) and vecs.shape == (9, n, n)
            for i in range(len(stack)):
                one_vals, one_vecs = full_spectrum(stack[i:i + 1])
                assert one_vals.shape == (1, n) and one_vecs.shape == (1, n, n)
                assert np.array_equal(vals[i], one_vals[0])
                assert np.array_equal(vecs[i], one_vecs[0])


class TestClassifierGrad:
    def test_points_toward_own_class(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        g = smooth(spec, 0.5)
        grad = classifier_grad(g, np.zeros((1, 2)), 0)[0]
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
            lj, _ = _log_joint(g, x[None])
            post = _responsibilities(lj)[0]
            total = post[0] * classifier_grad(g, x[None], 0) + post[1] * classifier_grad(g, x[None], 1)
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
                return log_density(g_sub, y[None])[0] - log_density(g, y[None])[0]

            assert np.abs(classifier_grad(g, x[None], 0)[0] - fd_gradient(log_post, x)).max() < 1e-5

    def test_unknown_class_rejected(self):
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.5)
        with pytest.raises(ValueError, match="unknown class"):
            classifier_grad(g, np.zeros((1, 2)), 7)

    def test_equals_conditional_minus_marginal_score(self):
        rng = np.random.default_rng(10)
        spec = make_simplex_gmm(4, 6, 0.4)
        g = smooth(spec, 0.6)
        sub = GmmSpec([1.0], spec.means[2:3], spec.covariances[2:3])
        g_sub = smooth(sub, 0.6)
        for _ in range(10):
            x = rng.standard_normal((1, 6))
            expected = score(g_sub, x) - score(g, x)
            assert np.abs(classifier_grad(g, x, 2) - expected).max() < 1e-10


class TestClassifyRegion:
    def test_single_gaussian_never_saddle(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 2)), [0.5]), 0.3)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal((1, 2)) * 4
            assert classify_region(g, x).tolist() != ["saddle_region"]

    def test_separated_two_gaussian_midpoint_is_saddle(self):
        g = smooth(make_two_gaussian(4.0, 1.0, 2), 0.0)
        assert classify_region(g, np.zeros((1, 2))).tolist() == ["saddle_region"]

    def test_merged_two_gaussian_midpoint_is_mode(self):
        # mu = 0.5, s = 1: top eigenvalue -1 + 0.25 < 0 and zero score
        g = smooth(make_two_gaussian(1.0, 1.0, 2), 0.0)
        assert classify_region(g, np.zeros((1, 2))).tolist() == ["mode"]

    def test_off_mode_point_is_other(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 2)), [1.0]), 0.0)
        assert classify_region(g, np.array([[2.0, 0.0]])).tolist() == ["other"]

    def test_grad_tol_validation(self):
        g = smooth(GmmSpec([1.0], np.zeros((1, 2)), [1.0]), 0.0)
        with pytest.raises(ValueError):
            classify_region(g, np.zeros((1, 2)), grad_tol=0.0)

    @pytest.mark.parametrize("full_cov_prob", [0.0, 1.0], ids=["isotropic", "full_covariance"])
    def test_batch_labels_match_single_points(self, full_cov_prob):
        # a single point is a one-row batch; each row of an N-row batch matches it
        rng = np.random.default_rng(13)
        seen = set()
        for _ in range(12):
            spec = random_mixture(rng, full_cov_prob=full_cov_prob)
            g = smooth(spec, float(rng.random()))
            xs = np.vstack([rng.standard_normal((8, spec.dim)) * 2, spec.means])
            labels = classify_region(g, xs)
            assert labels.shape == (len(xs),)
            assert labels.tolist() == [label for i in range(len(xs)) for label in classify_region(g, xs[i:i + 1])]
            seen.update(labels.tolist())
        assert seen == {"saddle_region", "mode", "other"}


# The per-component forms the oracle used before its one kernel, kept as the
# reference: an (N, k, n) difference, and an einsum for full covariances. They
# compute in the dtype of x, so an np.longdouble x gives an extended-precision
# truth.
def ref_log_joint(g, x):
    diff = x[:, None, :] - g.base.means[None, :, :]
    if g.isotropic:
        quad = (diff * diff).sum(axis=2) / g._var[None, :]
    else:
        quad = np.einsum("nki,kij,nkj->nk", diff, g._inv, diff)
    with np.errstate(divide="ignore"):
        logw = np.log(g.base.weights)[None, :]
    return logw - 0.5 * (g.dim * np.log(2.0 * np.pi) + g._logdet[None, :] + quad), quad


def ref_component_scores(g, x):
    diff = g.base.means[None, :, :] - x[:, None, :]
    if g.isotropic:
        return diff / g._var[None, :, None]
    return np.einsum("kij,nkj->nki", g._inv, diff)


def ref_oracle(g, x, classes=None, with_hessian=True):
    """log density, score, Hessian (unless with_hessian is False) and the
    classifier gradient of each class in classes (default: every label) from
    the reference forms, with the oracle's expressions for each."""
    lj, _ = ref_log_joint(g, x)
    s_i = ref_component_scores(g, x)
    r = _responsibilities(lj)
    out = {"log_density": _logsumexp(lj, axis=1), "score": (r[:, :, None] * s_i).sum(axis=1)}
    if with_hessian:
        s = np.einsum("nk,nki->ni", r, s_i)
        h = np.einsum("nk,nki,nkj->nij", r, s_i, s_i) - s[:, :, None] * s[:, None, :]
        if g.isotropic:
            h -= (r / g._var).sum(axis=1)[:, None, None] * np.eye(g.dim)
        else:
            h -= np.einsum("nk,kij->nij", r, g._inv)
        out["hessian"] = h
    for c in np.unique(g.base.labels) if classes is None else classes:
        r_sub = _responsibilities(np.where((g.base.labels == c)[None, :], lj, -np.inf))
        out[f"clf{c}"] = ((r_sub - r)[:, :, None] * s_i).sum(axis=1)
    return out


def ref_scales(g, x, classes=None, with_hessian=True):
    """Per point, the size of the terms each reference output sums: the
    round-off scale that a relative bound is taken against (a classifier
    gradient or a Hessian can cancel to far below its terms). An isotropic
    score sum is one GEMM that adds mu_i / v_i and x / v_i apart, so its
    terms are (|mu_i| + |x|) / v_i; near a mean they dwarf |mu_i - x| / v_i."""
    lj, _ = ref_log_joint(g, x)
    a = np.abs(ref_component_scores(g, x))
    if g.isotropic:
        terms = (np.abs(g.base.means)[None, :, :] + np.abs(x)[:, None, :]) / g._var[None, :, None]
    else:
        terms = a
    r = _responsibilities(lj)
    out = {"log_density": np.maximum(np.abs(_logsumexp(lj, axis=1)), 1.0),
           "score": (r[:, :, None] * terms).sum(axis=1).max(axis=1)}
    if with_hessian:
        s = (r[:, :, None] * a).sum(axis=1)
        if g.isotropic:
            prec = (r / g._var).sum(axis=1)[:, None, None] * np.eye(g.dim)
        else:
            prec = np.einsum("nk,kij->nij", r, np.abs(g._inv))
        out["hessian"] = (np.einsum("nk,nki,nkj->nij", r, a, a) + s[:, :, None] * s[:, None, :]
                          + prec).max(axis=(1, 2))
    for c in np.unique(g.base.labels) if classes is None else classes:
        r_sub = _responsibilities(np.where((g.base.labels == c)[None, :], lj, -np.inf))
        out[f"clf{c}"] = ((r_sub + r)[:, :, None] * terms).sum(axis=1).max(axis=1)
    return out


def quad_term_scale(g, x):
    """(|x| + |mu_i|)^2 / v_i, the size of the terms of an isotropic
    quadratic form expanded as (|mu_i|^2 - 2 x.mu_i + |x|^2) / v_i."""
    norms = np.linalg.norm(x, axis=1)[:, None] + np.linalg.norm(g.base.means, axis=1)[None, :]
    return norms * norms / g._var[None, :]


def oracle_outputs(g, x, classes=None, with_hessian=True):
    out = {"log_density": log_density(g, x), "score": score(g, x)}
    if with_hessian:
        out["hessian"] = hessian(g, x)
    for c in np.unique(g.base.labels) if classes is None else classes:
        out[f"clf{c}"] = classifier_grad(g, x, int(c))
    return out


def assert_within(got, ref, scale, rel):
    assert set(got) == set(ref)
    for key in got:
        err = np.abs(got[key] - ref[key]).reshape(len(scale[key]), -1).max(axis=1)
        assert np.all(err <= rel * scale[key]), key


def fractal_probe_points():
    """The depth-8 fractal mixture, a point within 1e-3 of every mean, and
    64 points 10 to 30 units from the origin."""
    spec = Fractal(FractalSpec(8, np.pi / 5, 0.75, 0.005, n_classes=2)).gmm
    rng = np.random.default_rng(21)
    ang = rng.uniform(0, 2 * np.pi, spec.n_components)
    radius = 1e-3 * rng.uniform(0, 1, (spec.n_components, 1))
    near = spec.means + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    ang = rng.uniform(0, 2 * np.pi, 64)
    far = np.stack([np.cos(ang), np.sin(ang)], axis=1) * rng.uniform(10, 30, (64, 1))
    return spec, near, far


def isotropic_truth_points():
    """(spec, points) pairs: the two-Gaussian grid (it holds 0.0), and every
    mean of the 64-d simplex at 16 components and of the 256-d simplex at 16
    and 120, with 32 points 10 units from a mean in a random direction."""
    rng = np.random.default_rng(24)
    out = [(make_two_gaussian(4.0, 1.0, 2), make_grid(-4.0, 4.0, 21))]
    for dim, k in ((64, 16), (256, 16), (256, 120)):
        spec = make_simplex_gmm(k, dim, 0.2)
        step = rng.standard_normal((32, dim))
        step *= 10.0 / np.linalg.norm(step, axis=1, keepdims=True)
        out.append((spec, np.vstack([spec.means, spec.means[np.arange(32) % k] + step])))
    return out


class TestKernel:
    # Largest relative difference measured on the fractal: 9e-14 (quadratic
    # forms and every output, against the scales of their terms); on the
    # isotropic GEMM forms against a longdouble truth: BENCH_18.json.
    REL = 1e-12

    @pytest.mark.parametrize("sigma", [0.005, 0.05, 0.5, 1.0])
    def test_fractal_matches_the_einsum_reference(self, sigma):
        spec, near, far = fractal_probe_points()
        g = smooth(spec, sigma)
        for x in (near, far):
            quad, s_i = _kernel(g, x, scores=True)
            ref_quad = ref_log_joint(g, x)[1]
            ref_s = ref_component_scores(g, x)
            assert np.all(np.abs(quad - ref_quad) <= self.REL * ref_quad)
            assert np.all(np.abs(s_i - ref_s).max(axis=2) <= self.REL * np.abs(ref_s).max(axis=2))
            assert np.array_equal(_kernel(g, x)[0], quad)
            got = oracle_outputs(g, x)
            assert set(got) == {"log_density", "score", "hessian", "clf0", "clf1"}
            assert_within(got, ref_oracle(g, x), ref_scales(g, x), self.REL)

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 1.0])
    def test_isotropic_outputs_match_the_reference(self, sigma):
        rng = np.random.default_rng(22)
        two = make_two_gaussian(4.0, 1.0, 2)
        simplex = make_simplex_gmm(16, 64, 0.2)
        cases = [(two, make_grid(-4.0, 4.0, 21)),
                 (two, sample_gmm(two, 50, 1).points),
                 (simplex, np.vstack([simplex.means, rng.standard_normal((40, 64))]))]
        for spec, x in cases:
            g = smooth(spec, sigma)
            quad = _kernel(g, x)[0]
            assert np.all(np.abs(quad - ref_log_joint(g, x)[1]) <= self.REL * quad_term_scale(g, x))
            assert_within(oracle_outputs(g, x), ref_oracle(g, x), ref_scales(g, x), self.REL)

    @pytest.mark.parametrize("sigma", [0.0, 0.002, 0.05, 1.0])
    def test_isotropic_gemm_forms_match_a_longdouble_truth(self, sigma):
        for spec, x in isotropic_truth_points():
            g = smooth(spec, sigma)
            classes = np.unique(spec.labels)[[0, -1]]
            for rows in np.array_split(x, -(-len(x) // 32)):  # (32, k, n) longdouble at most
                truth = rows.astype(np.longdouble)
                quad = _kernel(g, rows)[0]
                assert np.all(np.abs(quad - ref_log_joint(g, truth)[1])
                              <= self.REL * quad_term_scale(g, rows))
                assert_within(oracle_outputs(g, rows, classes, with_hessian=False),
                              ref_oracle(g, truth, classes, with_hessian=False),
                              ref_scales(g, rows, classes, with_hessian=False), self.REL)

    def test_isotropic_calls_allocate_less_than_one_difference_tensor(self):
        spec = make_simplex_gmm(120, 256, 0.2)
        g = smooth(spec, 0.05)
        x = sample_gmm(spec, 256, 5).points
        tensor = x.size * spec.n_components * 8  # one (N, k, n) float64 array: 63 MB
        for call in (score, log_density, lambda g, x: classifier_grad(g, x, 3)):
            tracemalloc.start()
            try:
                call(g, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < tensor

    def test_overflowing_points_give_nan_without_a_warning(self):
        spec, near, _ = fractal_probe_points()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quad, _ = _kernel(smooth(spec, 0.0), near * 1e160)
        assert np.isnan(quad).any()


class TestRowBlocks:
    # every row of a block goes through the operations of a whole-array
    # call, so the outputs are the same bytes at any block size

    @staticmethod
    def outputs_bytes(g, x):
        return [np.asarray(out).tobytes() for out in oracle_outputs(g, x).values()]

    @pytest.mark.parametrize("sigma", [0.0, 0.01, 0.3])
    def test_blocks_are_bitwise_one_whole_array_call(self, sigma, monkeypatch):
        spec, near, far = fractal_probe_points()
        g = smooth(spec, sigma)
        block = oracle.BLOCK_CELLS // (spec.n_components * spec.dim)
        assert block == 16  # a 256-component 2-d block: (2, 16, 256) score scratch, 64 KB
        rng = np.random.default_rng(26)
        x = np.vstack([far, near, spec.means[rng.integers(0, spec.n_components, 2000)]
                       + 0.01 * rng.standard_normal((2000, 2))])[:2000]
        sizes = (1, block - 1, block, block + 1, 2000)
        blocked = {n: self.outputs_bytes(g, x[:n]) for n in sizes}
        # other block sizes, on a ragged row count
        odd = {}
        for rows in (1, 7):
            monkeypatch.setattr(oracle, "BLOCK_CELLS", rows * spec.n_components * spec.dim)
            odd[rows] = self.outputs_bytes(g, x[:333])
        monkeypatch.setattr(oracle, "BLOCK_CELLS", 1 << 62)  # every row in one block
        for n in sizes:
            assert blocked[n] == self.outputs_bytes(g, x[:n]), n
        assert odd[1] == odd[7] == self.outputs_bytes(g, x[:333])

    def test_score_allocates_under_a_megabyte(self):
        # one whole-array call allocated several (N, k) float64 arrays of 4 MB
        spec, _, _ = fractal_probe_points()
        g = smooth(spec, 0.01)
        x = sample_gmm(spec, 2000, 5).points
        tracemalloc.start()
        try:
            score(g, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
