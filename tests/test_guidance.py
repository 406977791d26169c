import numpy as np
import pytest

from sfglab.datasets import GmmSpec, make_two_gaussian
from sfglab.guidance import GUIDANCE_KINDS, GuidanceSpec, SfgState, extrapolate, sfg_start, sfg_step
from sfglab.model import OracleModel
from sfglab.oracle import classifier_grad, full_spectrum, hessian, score, smooth
from sfglab.rng import derive_seed
from sfglab.sampler import GuidedProvider, sfg_start_vectors


def single_gaussian_eps(variance=1.0):
    spec = GmmSpec([1.0], np.zeros((1, 2)), [variance])
    return OracleModel(spec)


def sfg_spec(weight=0.0, **kw):
    return GuidanceSpec(kind="sfg", weight=weight, **kw)


def start_carry(n, seed, spec):
    """A fresh one-row carry: the first start vector a run with this seed draws."""
    return sfg_start(sfg_start_vectors(seed, 1, n), spec)


class TestSfgInit:
    """The start carry: sfg_start at a row of sfg_start_vectors."""

    def test_unit_norm(self):
        st = start_carry(64, 0, sfg_spec())
        assert abs(np.linalg.norm(st.v) - 1.0) < 1e-12
        assert st.alpha == 1.0 and st.last_lambda == 0.0

    def test_seed_determinism(self):
        assert np.array_equal(start_carry(16, 3, sfg_spec()).v, start_carry(16, 3, sfg_spec()).v)
        assert not np.array_equal(start_carry(16, 3, sfg_spec()).v, start_carry(16, 4, sfg_spec()).v)

    def test_sphere_uniformity_coordinate_means(self):
        # each coordinate of a uniform unit vector has mean 0, variance 1/n,
        # across seeds and across the rows of one run's draw
        n, trials = 8, 10000
        across_seeds = np.concatenate([start_carry(n, derive_seed(1, i), sfg_spec()).v for i in range(trials)])
        band = 3.0 * np.sqrt(1.0 / n / trials)
        for vs in (across_seeds, sfg_start_vectors(1, trials, n)):
            assert np.abs(vs.mean(axis=0)).max() < band

    def test_validation(self):
        with pytest.raises(ValueError, match="unit norm"):
            start_carry(0, 0, sfg_spec())
        with pytest.raises(ValueError, match="unit norm"):
            sfg_start(np.array([[1.0, 1.0]]), sfg_spec())
        with pytest.raises(ValueError, match="batch"):  # one trajectory is a one-row carry
            sfg_start(np.array([1.0, 0.0]), sfg_spec())
        with pytest.raises(ValueError):
            start_carry(4, 0, sfg_spec(h=0.0))
        with pytest.raises(ValueError):
            start_carry(4, 0, sfg_spec(weight=-1.0))


class TestSfgStep:
    def test_single_gaussian_gate_never_opens(self):
        # smoothed N(0, I): eps linear in x, lambda = -sigma^2/(1+sigma^2) < 0
        om = single_gaussian_eps()
        sigma = 0.7
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(weight=2.0)
        st = start_carry(2, 1, gspec)
        x = np.array([[0.3, -1.2]])
        eps_hat, st, _ = sfg_step(eps_fn, x, sigma, st, gspec)
        expected_lam = -sigma**2 / (1 + sigma**2)
        assert abs(st.last_lambda - expected_lam) < 1e-12
        assert np.array_equal(eps_hat, eps_fn(x))  # gate closed: untouched

    def test_zero_weight_returns_base_estimate_exactly(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.5
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(weight=0.0)
        st = start_carry(2, 2, gspec)
        x = np.zeros((1, 2))
        for _ in range(8):  # let the carry align with the saddle direction
            eps_hat, st, _ = sfg_step(eps_fn, x, sigma, st, gspec)
            assert np.array_equal(eps_hat, eps_fn(x))
        assert st.last_lambda > 0  # saddle point: estimate positive even at w=0

    def test_warm_started_convergence_two_gaussian(self):
        # analytic top eigenvalue at the midpoint: -1/v + mu^2/v^2 with v = 1.25
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.5
        g = smooth(spec, sigma)
        lam_max = full_spectrum(hessian(g, np.zeros((1, 2))))[0][0, 0]
        target = sigma**2 * lam_max
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(alpha0=1.0, h=0.01, weight=0.0)
        st = start_carry(2, 3, gspec)
        x = np.zeros((1, 2))
        for _ in range(25):
            _, st, _ = sfg_step(eps_fn, x, sigma, st, gspec)
        assert abs(st.last_lambda - target) <= 1e-3 * (1 + abs(target))
        assert abs(st.v[0, 0]) > 0.999

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
            x0 = rng.standard_normal((1, n))
            h_mat = hessian(g, x0)[0]
            s0 = score(g, x0)

            def eps_fn(z):
                return -sigma * (s0 + (z - x0) @ h_mat)  # h_mat is symmetric

            gspec = sfg_spec(alpha0=1.0, h=0.05, weight=0.0)
            st = start_carry(n, int(rng.integers(1 << 30)), gspec)
            for _ in range(50):
                _, st, _ = sfg_step(eps_fn, x0, sigma, st, gspec)
            vals = sigma**2 * full_spectrum(h_mat[None])[0][0]
            shifted = vals + st.alpha[0] * sigma
            if len(vals) < 2 or abs(shifted[0]) == 0:
                continue
            gap = 1.0 - max(abs(s) for s in shifted[1:]) / abs(shifted[0])
            if gap < 0.08:
                continue
            hits += 1
            assert abs(st.last_lambda[0] - vals[0]) <= 1e-3 * (1 + abs(vals[0]))
        assert hits >= 5  # the sweep must actually exercise converged cases

    def test_alpha_monotone_and_shift_bound(self):
        om = single_gaussian_eps(0.3)
        sigma = 1.5
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(alpha0=0.0, weight=1.0)
        st = start_carry(2, 5, gspec)
        rng = np.random.default_rng(6)
        prev_alpha = 0.0
        for _ in range(20):
            x = rng.standard_normal((1, 2))
            _, st, _ = sfg_step(eps_fn, x, sigma, st, gspec)
            assert st.alpha >= prev_alpha - 1e-15
            assert st.last_lambda + st.alpha >= -1e-12
            prev_alpha = st.alpha

    def test_gate_soundness_on_concave_task(self):
        # oracle-backed single Gaussian: sigma^2-scaled top eigenvalue < 0
        # everywhere, so the gate must stay closed at every sampled state
        om = single_gaussian_eps()
        rng = np.random.default_rng(7)
        gspec = sfg_spec(weight=3.0)
        st = start_carry(2, 8, gspec)
        for _ in range(1000):
            sigma = float(rng.random() * 2 + 0.05)
            x = rng.standard_normal((1, 2)) * 3
            eps_fn = lambda z: om.predict_eps(z, sigma)
            base = eps_fn(x)
            eps_hat, st, corr = sfg_step(eps_fn, x, sigma, st, gspec)
            assert st.last_lambda < 0
            assert np.array_equal(eps_hat, base)
            assert np.all(corr == 0.0) and not np.signbit(corr).any()  # exact +0.0

    def test_correction_is_base_minus_estimate(self):
        # at the two-Gaussian saddle the gate opens: the correction is the
        # subtraction base - eps_hat, about w * u with u the probe difference
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma, x = 0.5, np.array([[0.0, 0.0], [0.1, -0.2], [3.0, 0.0]])
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(weight=2.0)
        st = sfg_start(np.tile([1.0, 0.0], (3, 1)), gspec)
        eps_hat, st2, corr = sfg_step(eps_fn, x, sigma, st, gspec)
        base = eps_fn(x)
        assert np.array_equal(corr, base - eps_hat)
        u = (base - eps_fn(x + gspec.h * sigma * st.v)) / gspec.h
        gate = st2.last_lambda > 0
        assert gate.tolist() == [True, True, False]  # the third point sits on a mode
        assert np.allclose(corr[gate], gspec.weight * u[gate], rtol=1e-12, atol=1e-14)
        assert np.all(corr[~gate] == 0.0)

    def test_finite_difference_first_order_convergence(self):
        # u approximates sigma^2 H v to O(h) at a generic (asymmetric) point
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.6
        g = smooth(spec, sigma)
        x = np.array([[0.7, 0.3]])
        v = np.array([[np.cos(0.3), np.sin(0.3)]])
        target = sigma**2 * (v @ hessian(g, x)[0])  # the Hessian is symmetric
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
        st = start_carry(2, 9, gspec)
        sfg_step(eps_fn, np.zeros((1, 2)), 0.5, st, gspec)
        assert len(calls) == 2

    def test_degenerate_direction_keeps_previous_vector(self):
        def eps_fn(z):
            return np.zeros_like(z)

        gspec = sfg_spec(alpha0=0.0, weight=2.0)
        st = start_carry(3, 10, gspec)
        v_before = st.v.copy()
        with pytest.warns(RuntimeWarning, match="degenerate"):
            eps_hat, st2, _ = sfg_step(eps_fn, np.ones((1, 3)), 0.5, st, gspec)
        assert np.array_equal(st2.v, v_before)
        assert np.array_equal(eps_hat, np.zeros((1, 3)))

    def test_batched_matches_single(self):
        # a single trajectory is a one-row batch; each row of a 3-row step matches it
        spec = make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.5
        eps_fn = lambda z: om.predict_eps(z, sigma)
        gspec = sfg_spec(1.5)
        ones = [start_carry(2, s, gspec) for s in (1, 2, 3)]
        batch = sfg_start(np.concatenate([st.v for st in ones]), gspec)
        xs = np.array([[0.0, 0.0], [0.5, 0.1], [-2.0, 0.4]])
        eps_b, batch2, _ = sfg_step(eps_fn, xs, sigma, batch, gspec)
        for i, st in enumerate(ones):
            eps_1, st2, _ = sfg_step(eps_fn, xs[i:i + 1], sigma, st, gspec)
            assert np.allclose(eps_b[i], eps_1[0], rtol=1e-14, atol=0)
            assert np.allclose(batch2.v[i], st2.v[0], rtol=1e-14, atol=0)
            assert np.isclose(batch2.last_lambda[i], st2.last_lambda[0])


class Fixed:
    """A stand-in model whose noise estimate is one fixed array."""

    data_dim = 2
    param = "eps"

    def __init__(self, eps):
        self.eps = eps

    def predict_eps(self, x, sigma, class_ids=None):
        return self.eps


def classifier_provider(spec, weight):
    return GuidedProvider({"main": OracleModel(spec)},
                          [GuidanceSpec(kind="classifier", weight=weight, classifier_class=0)], gmm=spec)


def guided_score(provider, x, sigma):
    """The score the provider's guided noise estimate stands for: -eps / sigma."""
    return -provider.base_eps(x, sigma, None) / sigma


class TestLinearCombinations:
    def test_cfg_identity_weight(self):
        a, b = np.array([1.0, 2.0]), np.array([0.5, -1.0])
        assert extrapolate(a, b, 1.0) is a

    def test_cfg_equal_estimates(self):
        a = np.array([1.0, 2.0])
        assert np.array_equal(extrapolate(a, a.copy(), 3.5), a)

    def test_cfg_formula(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.allclose(extrapolate(a, b, 2.0), [2.0, -1.0])

    def test_cfg_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            extrapolate(np.zeros(2), np.zeros(3), 2.0)

    def test_autoguidance_identities(self):
        # through the provider: the companion's estimate is the weak one
        a, b = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        x = np.zeros((1, 2))

        def base_eps(bad, w):
            spec = GuidanceSpec(kind="autoguidance", weight=w, companion="bad")
            return GuidedProvider({"main": Fixed(a), "bad": Fixed(bad)}, [spec]).base_eps(x, 0.5, None)

        assert base_eps(b, 1.0) is a
        assert np.array_equal(base_eps(a.copy(), 2.0), a)
        assert np.allclose(base_eps(b, 2.0), 2 * a - b)

    def test_extrapolation_matches_the_out_of_place_expression(self):
        # extrapolate builds its result in place; the bytes are those of
        # eps + (w - 1) * (eps - other)
        rng = np.random.default_rng(31)
        for shape in ((), (3,), (64, 2), (300, 5)):
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
            b = rng.standard_normal(shape)
            a_before, b_before = np.copy(a), np.copy(b)
            for w in (1.5, 2.0, 3.7, 1e6):
                want = a + (w - 1.0) * (a - b)
                assert np.array_equal(extrapolate(a, b, w), want)
            assert np.array_equal(a, a_before) and np.array_equal(b, b_before)

    def test_classifier_guidance(self):
        # eps - sigma * w * grad log p(y|x); w = 0 returns the model's estimate as is
        spec = make_two_gaussian(4.0, 1.0, 2)
        sigma, x = 0.5, np.array([[0.3, -0.4], [1.0, 0.2]])
        eps = OracleModel(spec).predict_eps(x, sigma)
        bare = GuidedProvider({"main": Fixed(eps)},
                              [GuidanceSpec(kind="classifier", weight=0.0, classifier_class=0)], gmm=spec)
        assert bare.base_eps(x, sigma, None) is eps
        grad = classifier_grad(smooth(spec, sigma), x, 0)
        guided = classifier_provider(spec, 0.5).base_eps(x, sigma, None)
        assert np.allclose(guided, eps - sigma * 0.5 * grad, rtol=1e-12, atol=0)

    def test_classifier_guidance_points_toward_class_mean(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        guided = guided_score(classifier_provider(spec, 1.0), np.zeros((1, 2)), 0.5)[0]
        assert guided[0] < -1e-3  # pushes toward class 0 at -2 e1

    def test_classifier_field_moves_toward_modes(self):
        # guided score gains positive alignment with (mu_0 - x) between modes
        spec = make_two_gaussian(4.0, 1.0, 2)
        sigma = 0.7
        g = smooth(spec, sigma)
        x = np.stack([np.linspace(-1.8, 1.8, 13), np.full(13, 0.3)], axis=1)
        guided = guided_score(classifier_provider(spec, 2.0), x, sigma)
        to_mode = spec.means[0] - x
        base_align = np.sum(score(g, x) * to_mode, axis=1)
        assert np.all(np.sum(guided * to_mode, axis=1) > base_align - 1e-12)


class TestProviderDispatch:
    def test_every_kind_is_dispatched(self):
        # each kind, at a weight that guides, changes the provider's estimate
        # near the saddle of the two-Gaussian task; none leaves it bitwise alone
        spec = make_two_gaussian(4.0, 1.0, 2)
        main, wide = OracleModel(spec), OracleModel(GmmSpec([1.0], np.zeros((1, 2)), [4.0]))
        settings = {
            "none": {},
            "classifier": {"weight": 2.0, "classifier_class": 0},
            "cfg": {"weight": 3.0, "companion": "uncond"},
            "autoguidance": {"weight": 2.0, "companion": "bad"},
            "sfg": {"weight": 2.0},
        }
        assert tuple(settings) == GUIDANCE_KINDS
        sigma, x = 0.5, np.array([[0.1, 0.05], [0.2, -0.2]])
        bare = main.predict_eps(x, sigma)
        for kind, kw in settings.items():
            gspec = GuidanceSpec(kind=kind, **kw)
            provider = GuidedProvider({"main": main, "uncond": wide, "bad": wide}, [gspec], gmm=spec)
            state = sfg_start(np.tile([1.0, 0.0], (2, 1)), gspec) if kind == "sfg" else None
            est, state, corr = provider.predictor(x, sigma, None, state)
            if kind == "none":
                assert np.array_equal(est, bare)
            else:
                assert np.linalg.norm(est - bare, axis=1).min() > 1e-3, kind
            assert (corr is not None) == (kind == "sfg") == (state is not None)


class TestGuidanceSpec:
    def test_interval_only_on_cfg(self):
        assert GuidanceSpec(kind="cfg", weight=2.0, companion="u").interval is None
        assert GuidanceSpec(kind="cfg", weight=2.0, companion="u", interval=(0.1, 0.8)).interval == (0.1, 0.8)
        with pytest.raises(ValueError, match="only to cfg"):
            GuidanceSpec(kind="autoguidance", weight=2.0, companion="u", interval=(0.1, 0.8))
        with pytest.raises(ValueError, match="unknown guidance kind"):
            GuidanceSpec(kind="interval_cfg", weight=2.0, companion="u", interval=(0.1, 0.8))

    def test_companion_required(self):
        for kind in ("cfg", "autoguidance"):
            with pytest.raises(ValueError, match="companion"):
                GuidanceSpec(kind=kind, weight=2.0)

    def test_fields_a_kind_never_reads_are_rejected(self):
        for kind, kw in (("none", {}), ("classifier", {"classifier_class": 0}), ("sfg", {})):
            with pytest.raises(ValueError, match="companion applies only to cfg and autoguidance"):
                GuidanceSpec(kind=kind, companion="bad", **kw)
        for kind, kw in (("none", {}), ("cfg", {"weight": 2.0, "companion": "u"}),
                         ("autoguidance", {"weight": 2.0, "companion": "u"}), ("sfg", {})):
            with pytest.raises(ValueError, match="classifier_class applies only to classifier"):
                GuidanceSpec(kind=kind, classifier_class=0, **kw)
        assert GuidanceSpec(kind="classifier", classifier_class=1).classifier_class == 1
        # the saddle-free settings: unset (None) off sfg, defaults 1.0 and 0.1 on it
        for kind, kw in (("none", {}), ("classifier", {"classifier_class": 0}),
                         ("cfg", {"weight": 2.0, "companion": "u"}),
                         ("autoguidance", {"weight": 2.0, "companion": "u"})):
            assert GuidanceSpec(kind=kind, **kw).alpha0 is GuidanceSpec(kind=kind, **kw).h is None
            for name in ("alpha0", "h"):
                with pytest.raises(ValueError, match=f"{name} applies only to sfg, not {kind}"):
                    GuidanceSpec(kind=kind, **{name: 1.0}, **kw)
        assert GuidanceSpec(kind="sfg") == GuidanceSpec(kind="sfg", alpha0=1.0, h=0.1)

    def test_classifier_needs_class(self):
        with pytest.raises(ValueError, match="classifier_class"):
            GuidanceSpec(kind="classifier", weight=1.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            GuidanceSpec(kind="cfg", weight=2.0, companion="u", interval=(0.8, 0.1))

    def test_list_interval_stored_as_tuple(self):
        spec = GuidanceSpec(kind="cfg", weight=7.0, companion="uncond", interval=[0.1, 0.8])
        assert spec.interval == (0.1, 0.8)

    def test_weight_bounds(self):
        # NaN fails every bound: an sfg spec at weight NaN would sample unguided,
        # and a NaN alpha0 or h would turn every trajectory non-finite
        nan, inf = float("nan"), float("inf")
        for kw in ({"kind": "cfg", "weight": 0.5, "companion": "u"},
                   {"kind": "autoguidance", "weight": nan, "companion": "u"},
                   {"kind": "classifier", "weight": nan, "classifier_class": 0},
                   {"kind": "sfg", "weight": -0.1}, {"kind": "sfg", "weight": nan},
                   {"kind": "sfg", "weight": inf}, {"kind": "sfg", "alpha0": -1.0},
                   {"kind": "sfg", "alpha0": nan}, {"kind": "sfg", "h": 0.0},
                   {"kind": "sfg", "h": nan}, {"kind": "sfg", "h": inf}):
            with pytest.raises(ValueError, match="finite"):
                GuidanceSpec(**kw)
