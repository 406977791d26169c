import numpy as np
import pytest

from sfglab.datasets import GmmSpec, make_two_gaussian
from sfglab.guidance import (GuidanceSpec, SfgState, autoguidance, cfg,
                             classifier_guidance, sfg_init, sfg_start, sfg_step)
from sfglab.model import OracleModel
from sfglab.oracle import classifier_grad, full_spectrum, hessian, score, smooth
from sfglab.rng import derive_seed


def single_gaussian_eps(variance=1.0):
    spec = GmmSpec([1.0], np.zeros((1, 2)), [variance])
    return OracleModel(spec)


def sfg_spec(weight=0.0, **kw):
    return GuidanceSpec(kind="sfg", weight=weight, **kw)


class TestSfgInit:
    def test_unit_norm(self):
        st = sfg_init(64, 0, sfg_spec())
        assert abs(np.linalg.norm(st.v) - 1.0) < 1e-12

    def test_seed_determinism(self):
        assert np.array_equal(sfg_init(16, 3, sfg_spec()).v, sfg_init(16, 3, sfg_spec()).v)
        assert not np.array_equal(sfg_init(16, 3, sfg_spec()).v, sfg_init(16, 4, sfg_spec()).v)

    def test_sphere_uniformity_coordinate_means(self):
        # each coordinate of a uniform unit vector has mean 0, variance 1/n
        n, trials = 8, 10000
        vs = np.stack([sfg_init(n, derive_seed(1, i), sfg_spec()).v for i in range(trials)])
        band = 3.0 * np.sqrt(1.0 / n / trials)
        assert np.abs(vs.mean(axis=0)).max() < band

    def test_validation(self):
        with pytest.raises(ValueError):
            sfg_init(0, 0, sfg_spec())
        with pytest.raises(ValueError):
            sfg_init(4, 0, sfg_spec(h=0.0))
        with pytest.raises(ValueError):
            sfg_init(4, 0, sfg_spec(weight=-1.0))


class TestSfgStep:
    def test_single_gaussian_gate_never_opens(self):
        # smoothed N(0, I): eps linear in x, lambda = -sigma^2/(1+sigma^2) < 0
        om = single_gaussian_eps()
        sigma = 0.7
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(weight=2.0)
        st = sfg_init(2, 1, gspec)
        x = np.array([0.3, -1.2])
        eps_hat, st = sfg_step(eps_fn, x, sigma, st, gspec)
        expected_lam = -sigma**2 / (1 + sigma**2)
        assert abs(st.last_lambda - expected_lam) < 1e-12
        assert np.array_equal(eps_hat, eps_fn(x))  # gate closed: untouched

    def test_zero_weight_returns_base_estimate_exactly(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.5
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(weight=0.0)
        st = sfg_init(2, 2, gspec)
        x = np.zeros(2)
        for _ in range(8):  # let the carry align with the saddle direction
            eps_hat, st = sfg_step(eps_fn, x, sigma, st, gspec)
            assert np.array_equal(eps_hat, eps_fn(x))
        assert st.last_lambda > 0  # saddle point: estimate positive even at w=0

    def test_warm_started_convergence_two_gaussian(self):
        # analytic top eigenvalue at the midpoint: -1/v + mu^2/v^2 with v = 1.25
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.5
        g = smooth(spec, sigma)
        lam_max = full_spectrum(hessian(g, np.zeros(2)))[0][0]
        target = sigma**2 * lam_max
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(alpha0=1.0, h=0.01, weight=0.0)
        st = sfg_init(2, 3, gspec)
        x = np.zeros(2)
        for _ in range(25):
            _, st = sfg_step(eps_fn, x, sigma, st, gspec)
        assert abs(st.last_lambda - target) <= 1e-3 * (1 + abs(target))
        assert abs(st.v[0]) > 0.999

    def test_power_iteration_on_linearized_models(self):
        # linear eps built from the analytic smoothed Hessian: exact JVPs, so
        # lambda must converge whenever the post-shift spectral gap is real.
        # The lambda error contracts like (1 - gap)^(2 * iters); 50 iterations
        # guarantee 1e-3 only once the gap clears ~8%, so that is the filter.
        rng = np.random.default_rng(4)
        hits = 0
        for _ in range(30):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 4))
            w = rng.random(k) + 0.1
            spec = GmmSpec(w / w.sum(), rng.standard_normal((k, n)) * 2,
                           rng.random(k) + 0.1)
            sigma = float(rng.random() + 0.2)
            g = smooth(spec, sigma)
            x0 = rng.standard_normal(n)
            h_mat = hessian(g, x0)
            s0 = score(g, x0)

            def eps_fn(z):
                return -sigma * (s0 + h_mat @ (z - x0))

            gspec = sfg_spec(alpha0=1.0, h=0.05, weight=0.0)
            st = sfg_init(n, int(rng.integers(1 << 30)), gspec)
            for _ in range(50):
                _, st = sfg_step(eps_fn, x0, sigma, st, gspec)
            vals = sigma**2 * full_spectrum(h_mat)[0]
            shifted = vals + float(st.alpha) * sigma
            if len(vals) < 2 or abs(shifted[0]) == 0:
                continue
            gap = 1.0 - max(abs(s) for s in shifted[1:]) / abs(shifted[0])
            if gap < 0.08:
                continue
            hits += 1
            assert abs(st.last_lambda - vals[0]) <= 1e-3 * (1 + abs(vals[0]))
        assert hits >= 5  # the sweep must actually exercise converged cases

    def test_alpha_monotone_and_shift_bound(self):
        om = single_gaussian_eps(0.3)
        sigma = 1.5
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(alpha0=0.0, weight=1.0)
        st = sfg_init(2, 5, gspec)
        rng = np.random.default_rng(6)
        prev_alpha = 0.0
        for _ in range(20):
            x = rng.standard_normal(2)
            _, st = sfg_step(eps_fn, x, sigma, st, gspec)
            assert st.alpha >= prev_alpha - 1e-15
            assert st.last_lambda + st.alpha >= -1e-12
            prev_alpha = st.alpha

    def test_gate_soundness_on_concave_task(self):
        # oracle-backed single Gaussian: sigma^2-scaled top eigenvalue < 0
        # everywhere, so the gate must stay closed at every sampled state
        om = single_gaussian_eps()
        rng = np.random.default_rng(7)
        gspec = sfg_spec(weight=3.0)
        st = sfg_init(2, 8, gspec)
        for _ in range(1000):
            sigma = float(rng.random() * 2 + 0.05)
            x = rng.standard_normal(2) * 3
            eps_fn = lambda z: om.predict_eps(z, sigma)
            base = eps_fn(x)
            eps_hat, st = sfg_step(eps_fn, x, sigma, st, gspec)
            assert st.last_lambda < 0
            assert np.array_equal(eps_hat, base)

    def test_finite_difference_first_order_convergence(self):
        # u approximates sigma^2 H v to O(h) at a generic (asymmetric) point
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.6
        g = smooth(spec, sigma)
        x = np.array([0.7, 0.3])
        v = np.array([np.cos(0.3), np.sin(0.3)])
        target = sigma**2 * (hessian(g, x) @ v)
        errs = []
        for h in (0.2, 0.1, 0.05, 0.025):
            st = SfgState(v=v, alpha=1.0, last_lambda=0.0)
            eps_fn = lambda z: om.predict_eps(z, sigma)
            eps_hat = eps_fn(x)
            probe = eps_fn(x + h * sigma * v)
            u = (eps_hat - probe) / h
            errs.append(np.linalg.norm(u - target))
        for a, b in zip(errs, errs[1:]):
            assert b < a  # shrinking with h
        ratio = errs[0] / errs[2]  # h shrank 4x
        assert 2.5 < ratio < 6.0  # first order: ~4x

    def test_cost_contract_exactly_two_evaluations(self):
        om = single_gaussian_eps()
        calls = []

        def eps_fn(z):
            calls.append(1)
            return om.predict_eps(z, 0.5)

        gspec = sfg_spec(weight=1.0)
        st = sfg_init(2, 9, gspec)
        sfg_step(eps_fn, np.zeros(2), 0.5, st, gspec)
        assert len(calls) == 2

    def test_degenerate_direction_keeps_previous_vector(self):
        def eps_fn(z):
            return np.zeros_like(z)

        gspec = sfg_spec(alpha0=0.0, weight=2.0)
        st = sfg_init(3, 10, gspec)
        v_before = st.v.copy()
        with pytest.warns(RuntimeWarning, match="degenerate"):
            eps_hat, st2 = sfg_step(eps_fn, np.ones(3), 0.5, st, gspec)
        assert np.array_equal(st2.v, v_before)
        assert np.array_equal(eps_hat, np.zeros(3))

    def test_batched_matches_single(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.5
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(1.5)
        singles = [sfg_init(2, s, gspec) for s in (1, 2, 3)]
        batch = sfg_start(np.stack([st.v for st in singles]), gspec)
        xs = np.array([[0.0, 0.0], [0.5, 0.1], [-2.0, 0.4]])
        eps_b, batch2 = sfg_step(eps_fn, xs, sigma, batch, gspec)
        for i, st in enumerate(singles):
            eps_s, st2 = sfg_step(eps_fn, xs[i], sigma, st, gspec)
            assert np.allclose(eps_b[i], eps_s, rtol=1e-14, atol=0)
            assert np.allclose(batch2.v[i], st2.v, rtol=1e-14, atol=0)
            assert np.isclose(batch2.last_lambda[i], st2.last_lambda)


class TestLinearCombinations:
    def test_cfg_identity_weight(self):
        a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        assert cfg(a, b, 1.0) is a

    def test_cfg_equal_estimates(self):
        a = np.array([1.0, 2.0])
        assert np.array_equal(cfg(a, a.copy(), 3.5), a)

    def test_cfg_formula(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.allclose(cfg(a, b, 2.0), [2.0, -1.0])

    def test_cfg_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            cfg(np.zeros(2), np.zeros(3), 2.0)

    def test_autoguidance_identities(self):
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        assert autoguidance(a, b, 1.0) is a
        assert np.array_equal(autoguidance(a, a.copy(), 2.0), a)
        assert np.allclose(autoguidance(a, b, 2.0), 2 * a - b)

    def test_extrapolation_matches_the_out_of_place_expression(self):
        # cfg and autoguidance build their result in place; the bytes are
        # those of eps + (w - 1) * (eps - other)
        rng = np.random.default_rng(31)
        for shape in ((), (3,), (64, 2), (300, 5)):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
            b = rng.standard_normal(shape)
            a_before, b_before = np.copy(a), np.copy(b)
            for w in (1.5, 2.0, 3.7, 1e6):
                want = a + (w - 1.0) * (a - b)
                assert np.array_equal(cfg(a, b, w), want)
                assert np.array_equal(autoguidance(a, b, w), want)
            assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    def test_classifier_guidance(self):
        s, g = np.array([1.0, 0.0]), np.array([0.0, 2.0])
        assert classifier_guidance(s, g, 0.0) is s
        assert np.allclose(classifier_guidance(s, g, 0.5), [1.0, 1.0])

    def test_classifier_guidance_points_toward_class_mean(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        g = smooth(spec, 0.5)
        x = np.zeros(2)
        guided = classifier_guidance(score(g, x), classifier_grad(g, x, 0), 1.0)
        assert guided[0] < -1e-3  # pushes toward class 0 at -2 e1

    def test_classifier_field_moves_toward_modes(self):
        # guided score gains positive alignment with (mu_0 - x) between modes
        spec = make_two_gaussian(4.0, 1.0, 2)
        g = smooth(spec, 0.7)
        xs = np.linspace(-1.8, 1.8, 13)
        for x0 in xs:
            x = np.array([x0, 0.3])
            guided = classifier_guidance(score(g, x), classifier_grad(g, x, 0), 2.0)
            to_mode = spec.means[0] - x
            base_align = float(score(g, x) @ to_mode)
            assert float(guided @ to_mode) > base_align - 1e-12


class TestGuidanceSpec:
    def test_interval_required_iff_interval_kind(self):
        with pytest.raises(ValueError):
            GuidanceSpec(kind="cfg", weight=2.0, companion="u", interval=(0.1, 0.8))
        with pytest.raises(ValueError):
            GuidanceSpec(kind="interval_cfg", weight=2.0, companion="u")

    def test_companion_required(self):
        for kind in ("cfg", "autoguidance"):
            with pytest.raises(ValueError, match="companion"):
                GuidanceSpec(kind=kind, weight=2.0)

    def test_classifier_needs_class(self):
        with pytest.raises(ValueError, match="classifier_class"):
            GuidanceSpec(kind="classifier", weight=1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            GuidanceSpec(kind="interval_cfg", weight=2.0, companion="u", interval=(0.8, 0.1))

    def test_list_interval_stored_as_tuple(self):
        spec = GuidanceSpec(kind="interval_cfg", weight=7.0, companion="uncond", interval=[0.1, 0.8])
        assert spec.interval == (0.1, 0.8)

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            GuidanceSpec(kind="cfg", weight=0.5, companion="u")
        with pytest.raises(ValueError):
            GuidanceSpec(kind="sfg", weight=-0.1)
