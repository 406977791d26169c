import numpy as np
import pytest

from sfglab.datasets import GmmSpec, make_two_gaussian
from sfglab.guidance import GuidanceSpec
from sfglab.model import OracleModel, ScoreModel
from sfglab.oracle import classifier_grad, smooth
from sfglab.sampler import GuidedProvider, Schedule, flow_time_schedule, sample, sigma_schedule


def single_gaussian_oracle(variance=1.0, dim=2):
    return OracleModel(GmmSpec([1.0], np.zeros((1, dim)), [variance]))


class TestSchedules:
    def test_two_point_linear(self):
        sch = sigma_schedule(2, 0.5, 3.0, rho=1.0)
        assert np.allclose(sch.steps, [3.0, 0.5, 0.0])

    def test_paper_step_count(self):
        sch = sigma_schedule(100)
        assert sch.n_steps == 100
        assert len(sch.steps) == 101
        assert sch.steps[0] == 80.0 and sch.steps[-1] == 0.0

    def test_monotonicity_property(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            lo = float(rng.random() * 0.5 + 1e-4)
            hi = lo + float(rng.random() * 50 + 0.1)
            rho = float(rng.random() * 10 + 0.2)
            n = int(rng.integers(2, 40))
            steps = sigma_schedule(n, lo, hi, rho).steps
            assert np.all(np.diff(steps) < 0)

    def test_flow_time_schedule_range(self):
        sch = flow_time_schedule(50)
        assert sch.kind == "flow_time"
        assert np.all(sch.steps >= 0) and np.all(sch.steps < 1)
        assert np.all(np.diff(sch.steps) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_schedule(1, 0.1, 1.0)
        with pytest.raises(ValueError):
            sigma_schedule(10, 1.0, 0.5)
        with pytest.raises(ValueError, match="monotone"):
            Schedule("sigma", [1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="flow times"):
            Schedule("flow_time", [0.2, 1.0])
        with pytest.raises(ValueError, match="kind"):
            Schedule("whatever", [1.0, 0.0])


class TestHeun:
    def test_zero_eps_keeps_latents(self):
        sch = sigma_schedule(20, 0.01, 5.0)
        x0 = 5.0 * np.random.default_rng(1).standard_normal((16, 3))
        trajs = sample(lambda x, s: np.zeros_like(x), sch, 16, seed=1, dim=3, x0=x0)
        assert np.array_equal(trajs.points, x0)

    def test_single_gaussian_samples_match_target(self):
        om = single_gaussian_oracle()
        sch = sigma_schedule(100, 0.002, 80.0)
        trajs = sample(om.predict_eps, sch, 10_000, seed=2, dim=2)
        from sfglab.evaluation import gaussian_frechet
        ref = np.random.default_rng(3).standard_normal((10_000, 2))
        assert gaussian_frechet(trajs.points, ref) < 0.01

    def test_analytic_flow_map(self):
        # dx/dsigma = sigma x / (v + sigma^2): x(0) = x(s0) sqrt(v / (v + s0^2))
        v = 0.7
        om = single_gaussian_oracle(v)
        sch = sigma_schedule(100, 0.002, 10.0)
        x0 = np.array([[1.3, -0.4], [0.2, 2.0]])
        trajs = sample(om.predict_eps, sch, 2, seed=4, dim=2, x0=x0)
        expected = x0 * np.sqrt(v / (v + sch.steps[0] ** 2))
        rel = np.abs(trajs.points - expected) / np.abs(expected)
        assert rel.max() < 1e-3

    def test_second_order_convergence(self):
        v = 1.0
        om = single_gaussian_oracle(v)
        x0 = np.array([[0.9, -1.1]])
        finals = {}
        for n in (40, 80, 160):
            sch = sigma_schedule(n, 0.05, 10.0)
            finals[n] = sample(om.predict_eps, sch, 1, seed=5, dim=2, x0=x0).points
        e1 = np.linalg.norm(finals[40] - finals[160])
        e2 = np.linalg.norm(finals[80] - finals[160])
        assert 2.8 < e1 / e2 < 6.0  # ~4x shrink per halving: order 2

    def test_failed_trajectories_are_excluded(self):
        def exploding(x, s):
            out = np.zeros_like(x)
            out[x[:, 0] > 0] = np.nan
            return out

        sch = sigma_schedule(5, 0.1, 2.0)
        trajs = sample(exploding, sch, 32, seed=6, dim=2)
        assert 0 < trajs.n_failed < 32
        pts = trajs.to_point_set()
        assert len(pts) == 32 - trajs.n_failed
        assert np.all(np.isfinite(pts.points))

    def test_determinism_and_thread_invariance(self):
        om = single_gaussian_oracle()
        sch = sigma_schedule(20, 0.01, 10.0)
        a = sample(om.predict_eps, sch, 70, seed=7, dim=2, chunk_size=16, threads=1)
        b = sample(om.predict_eps, sch, 70, seed=7, dim=2, chunk_size=16, threads=4)
        assert np.array_equal(a.points, b.points)
        c = sample(om.predict_eps, sch, 70, seed=7, dim=2, chunk_size=16, threads=1)
        assert np.array_equal(a.points, c.points)


class TestEulerFlow:
    def test_zero_velocity_constant(self):
        sch = flow_time_schedule(10)
        x0 = np.random.default_rng(8).standard_normal((8, 2))
        trajs = sample(lambda x, t: np.zeros_like(x), sch, 8, seed=8, dim=2, x0=x0)
        assert np.array_equal(trajs.points, x0)

    def test_straight_line_field_reaches_target(self):
        # v(x, t) = (target - x) / (1 - t): the exact solution contracts the
        # gap by (1 - t), so the integrator should land on the analytic value
        target = np.array([2.0, -1.0])

        def field(x, t):
            return (target[None, :] - x) / (1.0 - t)

        t_end = 0.999
        steps = np.linspace(0.0, t_end, 400)
        sch = Schedule("flow_time", steps)
        x0 = np.array([[5.0, 5.0]])
        trajs = sample(field, sch, 1, seed=9, dim=2, x0=x0)
        exact_gap = np.linalg.norm(x0[0] - target) * (1.0 - t_end)
        assert np.linalg.norm(trajs.points[0] - target) < 1.5 * exact_gap

    def test_oracle_flow_generation(self):
        om = single_gaussian_oracle()
        sch = flow_time_schedule(100, 0.002, 80.0)
        trajs = sample(om.predict_velocity, sch, 4000, seed=10, dim=2)
        pts = trajs.points
        assert np.abs(pts.mean(axis=0)).max() < 0.1
        assert np.abs(np.cov(pts, rowvar=False) - np.eye(2)).max() < 0.12


class TestGuidedProviders:
    def setup_method(self):
        self.spec = make_two_gaussian(4.0, 1.0, 2)
        self.om = OracleModel(self.spec)
        self.sch = sigma_schedule(30, 0.01, 10.0)

    def run(self, specs, n=64, seed=11, **kw):
        provider = GuidedProvider({"main": self.om, "uncond": self.om, "bad": self.om},
                                  specs, gmm=self.spec)
        return sample(provider, self.sch, n, seed=seed, **kw)

    def test_none_passthrough_matches_bare_model(self):
        guided = self.run([GuidanceSpec(kind="none")])
        bare = sample(self.om.predict_eps, self.sch, 64, seed=11, dim=2)
        assert np.array_equal(guided.points, bare.points)

    def test_cfg_identity_weight_bitwise(self):
        base = self.run([GuidanceSpec(kind="none")], class_ids=1)
        guided = self.run([GuidanceSpec(kind="cfg", weight=1.0, companion="uncond")],
                          class_ids=1)
        assert np.array_equal(base.points, guided.points)

    def test_autoguidance_identity_weight_bitwise(self):
        base = self.run([GuidanceSpec(kind="none")])
        guided = self.run([GuidanceSpec(kind="autoguidance", weight=1.0, companion="bad")])
        assert np.array_equal(base.points, guided.points)

    def test_sfg_zero_weight_bitwise(self):
        base = self.run([GuidanceSpec(kind="none")])
        guided = self.run([GuidanceSpec(kind="sfg", weight=0.0)])
        assert np.array_equal(base.points, guided.points)

    def test_classifier_zero_weight_bitwise(self):
        base = self.run([GuidanceSpec(kind="none")], class_ids=0)
        guided = self.run([GuidanceSpec(kind="classifier", weight=0.0, classifier_class=0)],
                          class_ids=0)
        assert np.array_equal(base.points, guided.points)

    def test_classifier_guidance_shifts_eps_by_the_bayes_gradient(self):
        spec = GuidanceSpec(kind="classifier", weight=2.0, classifier_class=0)
        eps_mode = GuidedProvider({"main": self.om}, [spec], gmm=self.spec)
        flow_mode = GuidedProvider({"main": self.om}, [spec], mode="flow", gmm=self.spec)
        x = np.random.default_rng(16).standard_normal((6, 2)) * 2
        for sigma in (0.2, 1.0, 5.0):
            expected = (self.om.predict_eps(x, sigma)
                        - sigma * 2.0 * classifier_grad(smooth(self.spec, sigma), x, 0))
            tol = 1e-9 * np.abs(expected).max()
            assert np.abs(eps_mode.base_eps(x, sigma, None) - expected).max() <= tol
            t = sigma / (1.0 + sigma)  # the same level in flow time, with x_t = (1 - t) x
            assert np.abs(flow_mode.base_eps((1.0 - t) * x, t, None) - expected).max() <= tol

    def test_sfg_gate_closed_task_is_bitwise_unguided(self):
        om = single_gaussian_oracle()
        provider = GuidedProvider({"main": om}, [GuidanceSpec(kind="sfg", weight=3.0)])
        guided = sample(provider, self.sch, 64, seed=12)
        base = sample(om.predict_eps, self.sch, 64, seed=12, dim=2)
        assert np.array_equal(guided.points, base.points)
        assert not guided.sfg_trace["gate"].any()

    def test_sfg_trace_recorded(self):
        guided = self.run([GuidanceSpec(kind="sfg", weight=1.0)])
        trace = guided.sfg_trace
        assert trace["lambda"].shape == (30, 64)
        assert trace["alpha"].shape == (30, 64)
        # monotone alpha along every trajectory
        assert np.all(np.diff(trace["alpha"], axis=0) >= -1e-15)

    @pytest.mark.parametrize("h, alpha0", [(0.1, 1.0), (0.03, 2.5)], ids=["default", "nondefault"])
    def test_sfg_manual_state_threading_matches_sampler(self, h, alpha0):
        # re-run the integrator by hand with sfg_step to confirm the state
        # carry v_i = u_{i-1}/||u_{i-1}|| is exactly what the sampler does,
        # with the spec's h and alpha0 reaching the step
        from sfglab.guidance import SfgState, sfg_init, sfg_step
        from sfglab.rng import derive_seed, generator

        spec = GuidanceSpec(kind="sfg", weight=2.0, alpha0=alpha0, h=h)
        n, seed = 8, 13
        guided = self.run([spec], n=n, seed=seed)

        steps = self.sch.steps
        seeds = [derive_seed(seed, i) for i in range(n)]
        x = np.stack([generator(s, 0).standard_normal(2) for s in seeds]) * steps[0]
        v = np.stack([sfg_init(2, derive_seed(s, 1), spec).v for s in seeds])
        state = SfgState(v=v, alpha=np.full(n, alpha0), last_lambda=np.zeros(n))
        for k in range(len(steps) - 1):
            s_cur, s_next = steps[k], steps[k + 1]
            raw = []

            def eps_fn(z):
                raw.append(self.om.predict_eps(z, s_cur))
                return raw[-1]

            d_cur, state = sfg_step(eps_fn, x, s_cur, state, spec)
            corr = raw[0] - d_cur
            x_new = x + (s_next - s_cur) * d_cur
            if s_next > 0:
                d_prime = self.om.predict_eps(x_new, s_next) - corr
                x_new = x + (s_next - s_cur) * 0.5 * (d_cur + d_prime)
            x = x_new
        trajs2 = self.run([spec], n=n, seed=seed)
        assert np.array_equal(guided.points, trajs2.points)
        assert np.array_equal(guided.points, x)

    def test_missing_companion_rejected(self):
        with pytest.raises(ValueError, match="missing companion"):
            GuidedProvider({"main": self.om},
                           [GuidanceSpec(kind="cfg", weight=2.0, companion="uncond")])

    def test_sfg_must_be_last(self):
        with pytest.raises(ValueError, match="last"):
            GuidedProvider({"main": self.om, "bad": self.om},
                           [GuidanceSpec(kind="sfg", weight=1.0),
                            GuidanceSpec(kind="autoguidance", weight=2.0, companion="bad")])

    def test_stacked_ag_sfg_runs_and_differs(self):
        degraded = OracleModel(GmmSpec([1.0], np.zeros((1, 2)), [4.0]))
        provider = GuidedProvider(
            {"main": self.om, "bad": degraded},
            [GuidanceSpec(kind="autoguidance", weight=1.5, companion="bad"),
             GuidanceSpec(kind="sfg", weight=1.0)], gmm=self.spec)
        stacked = sample(provider, self.sch, 32, seed=14)
        ag_only = sample(
            GuidedProvider({"main": self.om, "bad": degraded},
                           [GuidanceSpec(kind="autoguidance", weight=1.5, companion="bad")]),
            self.sch, 32, seed=14)
        assert not np.array_equal(stacked.points, ag_only.points)
        assert stacked.sfg_trace is not None

    def test_cfg_mode_seeking_reduces_within_class_variance(self):
        strong = self.run([GuidanceSpec(kind="cfg", weight=3.5, companion="uncond")],
                          n=300, class_ids=1)
        weak = self.run([GuidanceSpec(kind="cfg", weight=1.0, companion="uncond")],
                        n=300, class_ids=1)
        assert strong.points.var(axis=0).sum() < weak.points.var(axis=0).sum()

    def test_interval_cfg_covering_every_level_is_bitwise_cfg(self):
        full = self.run([GuidanceSpec(kind="cfg", weight=3.0, companion="uncond")], class_ids=1)
        part = self.run([GuidanceSpec(kind="interval_cfg", weight=3.0, companion="uncond",
                                      interval=(0.0, 1.0))], class_ids=1)
        assert np.array_equal(part.points, full.points)

    def test_interval_cfg_covering_no_level_is_bitwise_unguided(self):
        # the schedule's flow times sigma / (1 + sigma) stay at or below 10 / 11
        none = self.run([GuidanceSpec(kind="none")], class_ids=1)
        part = self.run([GuidanceSpec(kind="interval_cfg", weight=3.0, companion="uncond",
                                      interval=(0.95, 0.99))], class_ids=1)
        full = self.run([GuidanceSpec(kind="cfg", weight=3.0, companion="uncond")], class_ids=1)
        assert np.array_equal(part.points, none.points)
        assert not np.array_equal(full.points, none.points)

    def test_interval_cfg_moderates_the_cfg_overshoot(self):
        # strong CFG overshoots past the class mean along +e1; restricting the
        # guidance to the (0.1, 0.8) interval moderates the bias
        full = self.run([GuidanceSpec(kind="cfg", weight=7.0, companion="uncond")],
                        n=300, class_ids=1)
        part = self.run([GuidanceSpec(kind="interval_cfg", weight=7.0, companion="uncond",
                                      interval=(0.1, 0.8))], n=300, class_ids=1)
        none = self.run([GuidanceSpec(kind="none")], n=300, class_ids=1)
        m_full = full.points[:, 0].mean()
        m_part = part.points[:, 0].mean()
        m_none = none.points[:, 0].mean()
        assert m_full > m_part + 0.1 > m_none + 0.2


class TestCostContract:
    def test_sfg_euler_flow_two_evals_per_step(self):
        om = single_gaussian_oracle()
        counter = {"n": 0}

        class Counting:
            data_dim = 2
            param = "eps"

            def predict_eps(self, x, sigma, class_ids=None):
                counter["n"] += 1
                return om.predict_eps(x, sigma, class_ids)

            def predict_velocity(self, x, t, class_ids=None):
                counter["n"] += 1
                return om.predict_velocity(x, t, class_ids)

        sch = flow_time_schedule(25, 0.01, 10.0)
        provider = GuidedProvider({"main": Counting()},
                                  [GuidanceSpec(kind="sfg", weight=1.0)], mode="flow")
        sample(provider, sch, 4, seed=15)
        assert counter["n"] == 2 * sch.n_steps

    def test_sfg_heun_adds_one_eval_over_unguided(self):
        om = single_gaussian_oracle()
        counts = []
        for specs in ([GuidanceSpec(kind="none")], [GuidanceSpec(kind="sfg", weight=1.0)]):
            counter = {"n": 0}

            class Counting:
                data_dim = 2
                param = "eps"

                def predict_eps(self, x, sigma, class_ids=None):
                    counter["n"] += 1
                    return om.predict_eps(x, sigma, class_ids)

            provider = GuidedProvider({"main": Counting()}, specs)
            sample(provider, sigma_schedule(20, 0.01, 10.0), 4, seed=16)
            counts.append(counter["n"])
        n_steps = 20
        assert counts[0] == 2 * n_steps - 1  # heun: predictor + corrector, last step euler
        assert counts[1] == counts[0] + n_steps  # sfg probe adds exactly one per step


    def test_interval_cfg_calls_its_companion_only_inside_the_interval(self):
        om = OracleModel(make_two_gaussian(4.0, 1.0, 2))
        levels_seen = []

        class Counting:
            data_dim = 2
            param = "eps"

            def predict_eps(self, x, sigma, class_ids=None):
                levels_seen.append(sigma)
                return om.predict_eps(x, sigma, class_ids)

        sch = sigma_schedule(10, 0.01, 10.0)
        provider = GuidedProvider({"main": om, "uncond": Counting()},
                                  [GuidanceSpec(kind="interval_cfg", weight=3.0, companion="uncond",
                                                interval=(0.3, 0.6))])
        sample(provider, sch, 4, seed=17, class_ids=1)
        # Heun evaluates a predictor at every level but 0 and a corrector at
        # every level after the first but 0
        levels = [*sch.steps[:-1], *sch.steps[1:-1]]
        inside = [s for s in levels if 0.3 <= s / (1.0 + s) <= 0.6]
        assert 0 < len(inside) < len(levels)
        assert sorted(levels_seen) == sorted(inside)


class TestModelBackedSampling:
    def test_trained_model_runs_through_sampler(self):
        m = ScoreModel(2, [16], seed=17)
        sch = sigma_schedule(10, 0.05, 5.0)
        trajs = sample(GuidedProvider({"main": m}, [GuidanceSpec(kind="none")]),
                       sch, 8, seed=18)
        assert trajs.points.shape == (8, 2)
        assert np.all(np.isfinite(trajs.points))

    def test_flow_model_euler_sampling(self):
        m = ScoreModel(2, [16], param="flow", seed=19)
        sch = flow_time_schedule(10, 0.05, 5.0)
        trajs = sample(GuidedProvider({"main": m}, [GuidanceSpec(kind="none")],
                                      mode="flow"), sch, 8, seed=20)
        assert trajs.points.shape == (8, 2)

    def test_mode_schedule_mismatch_rejected(self):
        m = ScoreModel(2, [16], seed=21)
        provider = GuidedProvider({"main": m}, [GuidanceSpec(kind="none")], mode="eps")
        with pytest.raises(ValueError, match="does not fit"):
            sample(provider, flow_time_schedule(10), 4, seed=22)
