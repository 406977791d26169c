import numpy as np
import pytest

from sfglab import oracle
from sfglab.datasets import GmmSpec, make_two_gaussian, sample_gmm
from sfglab.guidance import GuidanceSpec, sfg_start, sfg_step
from sfglab.model import OracleModel, ScoreModel, TrainConfig, eps_to_flow, flow_to_eps, train
from sfglab.oracle import classifier_grad, smooth
from sfglab.sampler import (GuidedProvider, Schedule, initial_latents, sample, sfg_start_vectors,
                            sigma_schedule)


def single_gaussian_oracle(variance=1.0, dim=2):
    return OracleModel(GmmSpec([1.0], np.zeros((1, dim)), [variance]))


class Field:
    """A noise-estimate field fn(x, sigma) as an unconditional model of data_dim-d data."""

    def __init__(self, fn, data_dim=2):
        self.fn, self.data_dim = fn, data_dim

    def predict_eps(self, x, sigma, class_ids=None):
        return self.fn(x, sigma)


def unguided(model):
    return GuidedProvider({"main": model}, [])


class TestSchedules:
    def test_two_point_linear(self):
        sch = sigma_schedule(2, 0.5, 3.0, rho=1.0)
        assert np.allclose(sch.sigmas, [3.0, 0.5, 0.0])

    def test_paper_step_count(self):
        sch = sigma_schedule(100)
        assert sch.n_steps == 100
        assert len(sch.sigmas) == 101
        assert sch.sigmas[0] == 80.0 and sch.sigmas[-1] == 0.0

    def test_monotonicity_property(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            lo = float(rng.random() * 0.5 + 1e-4)
            hi = lo + float(rng.random() * 50 + 0.1)
            rho = float(rng.random() * 10 + 0.2)
            n = int(rng.integers(2, 40))
            sigmas = sigma_schedule(n, lo, hi, rho).sigmas
            assert np.all(np.diff(sigmas) < 0)

    def test_flow_time_schedule_range(self):
        # a flow-matching model reads each level at flow time t = sigma / (1 + sigma)
        sch = sigma_schedule(50, solver="euler")
        assert sch.solver == "euler"
        ts = sch.sigmas / (1.0 + sch.sigmas)
        assert np.all(ts >= 0) and np.all(ts < 1)
        assert np.all(np.diff(ts) < 0)
        # the solver is all that differs from the default schedule
        ref = sigma_schedule(50)
        assert ref.solver == "heun" and np.array_equal(sch.sigmas, ref.sigmas)
        assert sch.sigmas[-1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sigma_schedule(1, 0.1, 1.0)
        with pytest.raises(ValueError):
            sigma_schedule(10, 1.0, 0.5)
        with pytest.raises(ValueError, match="decrease"):
            Schedule([1.0, 1.0, 0.0], "heun")
        with pytest.raises(ValueError, match="decrease"):  # data to noise is not a generation
            Schedule([0.0, 0.5], "euler")
        with pytest.raises(ValueError, match=">= 0"):
            Schedule([1.0, -0.5], "heun")
        with pytest.raises(ValueError, match="finite"):
            Schedule([np.inf, 0.2], "euler")
        with pytest.raises(ValueError, match="solver"):
            Schedule([1.0, 0.0], "whatever")


class TestHeun:
    def test_zero_eps_keeps_latents(self):
        sch = sigma_schedule(20, 0.01, 5.0)
        x0 = 5.0 * np.random.default_rng(1).standard_normal((16, 3))
        trajs = sample(unguided(Field(lambda x, s: np.zeros_like(x), 3)), sch, 16, seed=1, x0=x0)
        assert np.array_equal(trajs.points, x0)

    def test_single_gaussian_samples_match_target(self):
        om = single_gaussian_oracle()
        sch = sigma_schedule(100, 0.002, 80.0)
        trajs = sample(unguided(om), sch, 10_000, seed=2)
        from sfglab.evaluation import gaussian_frechet
        assert gaussian_frechet(trajs.points, GmmSpec([1.0], np.zeros((1, 2)), [1.0])) < 0.01

    def test_analytic_flow_map(self):
        # dx/dsigma = sigma x / (v + sigma^2): x(0) = x(s0) sqrt(v / (v + s0^2))
        v = 0.7
        om = single_gaussian_oracle(v)
        sch = sigma_schedule(100, 0.002, 10.0)
        x0 = np.array([[1.3, -0.4], [0.2, 2.0]])
        trajs = sample(unguided(om), sch, 2, seed=4, x0=x0)
        expected = x0 * np.sqrt(v / (v + sch.sigmas[0] ** 2))
        rel = np.abs(trajs.points - expected) / np.abs(expected)
        assert rel.max() < 1e-3

    def test_second_order_convergence(self):
        v = 1.0
        om = single_gaussian_oracle(v)
        x0 = np.array([[0.9, -1.1]])
        finals = {}
        for n in (40, 80, 160):
            sch = sigma_schedule(n, 0.05, 10.0)
            finals[n] = sample(unguided(om), sch, 1, seed=5, x0=x0).points
        e1 = np.linalg.norm(finals[40] - finals[160])
        e2 = np.linalg.norm(finals[80] - finals[160])
        assert 2.8 < e1 / e2 < 6.0  # ~4x shrink per halving: order 2

    def test_failed_trajectories_are_excluded(self):
        def exploding(x, s):
            out = np.zeros_like(x)
            out[x[:, 0] > 0] = np.nan
            return out

        sch = sigma_schedule(5, 0.1, 2.0)
        trajs = sample(unguided(Field(exploding)), sch, 32, seed=6)
        assert 0 < trajs.n_failed < 32
        pts = trajs.to_point_set()
        assert len(pts) == 32 - trajs.n_failed
        assert np.all(np.isfinite(pts.points))

    def test_a_failing_run_is_byte_identical_across_threads(self):
        # rows with a positive first coordinate fail at one mid level; the
        # chunks step only their live rows after that, and the points, the
        # failure mask and the trace (NaN after a row failed) keep their
        # bytes at any thread count
        sch = sigma_schedule(12, 0.01, 5.0)
        inputs = []

        def late_blowup(x, s):
            inputs.append(np.array(x, copy=True))
            out = x * (s / (1.0 + s * s))
            if s == sch.sigmas[6]:
                out[x[:, 0] > 0] = np.inf
            return out

        provider = GuidedProvider({"main": Field(late_blowup)}, [GuidanceSpec(kind="sfg", weight=1.0)])
        with np.errstate(invalid="ignore", over="ignore"):
            a, b = [sample(provider, sch, 70, seed=9, chunk_size=16, threads=t) for t in (1, 3)]
        assert 0 < a.n_failed < 70
        assert a.failed.tobytes() == b.failed.tobytes()
        assert a.points.tobytes() == b.points.tobytes()
        assert np.all(np.isfinite(a.points))
        for key in ("lambda", "gate", "alpha"):
            assert a.sfg_trace[key].tobytes() == b.sfg_trace[key].tobytes()
        lam = a.sfg_trace["lambda"]
        assert np.all(np.isfinite(lam[:, ~a.failed]))
        for i in np.flatnonzero(a.failed):  # finite up to the failing step, NaN after it
            steps = np.isfinite(lam[:, i]).sum()
            assert 0 < steps < len(lam) and np.all(np.isnan(lam[steps:, i]))
            # its last finite point went into the failing step's base call only
            # (once per run), not into the steps after it
            assert sum(bool((rows == a.points[i]).all(axis=1).any()) for rows in inputs) == 2

    def test_determinism_and_thread_invariance(self):
        om = single_gaussian_oracle()
        sch = sigma_schedule(20, 0.01, 10.0)
        a = sample(unguided(om), sch, 70, seed=7, chunk_size=16, threads=1)
        b = sample(unguided(om), sch, 70, seed=7, chunk_size=16, threads=4)
        assert np.array_equal(a.points, b.points)
        c = sample(unguided(om), sch, 70, seed=7, chunk_size=16, threads=1)
        assert np.array_equal(a.points, c.points)


class TestRunDraws:
    def test_trajectory_draws_do_not_depend_on_the_sample_count(self):
        # trajectory i's start latent, random class id and sfg start vector
        # are row i of one draw per run, the same for every n_samples > i
        from sfglab.cli import _class_ids_for

        model = ScoreModel(3, [4], n_classes=5, seed=0)
        cfg = {"seed": 21, "sample": {"class_id": "random"}}
        counts = (1, 7, 64, 257)
        draws = {n: (initial_latents(21, n, 3, 2.5), _class_ids_for(cfg, model, n),
                     sfg_start_vectors(21, n, 3)) for n in counts}
        for n in counts:
            for got, full in zip(draws[n], draws[counts[-1]]):
                assert len(got) == n and np.array_equal(got, full[:n])
        latents, ids, v = draws[counts[-1]]
        assert ids.dtype == np.int64 and set(ids.tolist()) == set(range(5))
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() < 1e-12
        assert not np.allclose(np.abs(v), np.abs(latents) / np.linalg.norm(latents, axis=1, keepdims=True))


class TestEulerFlow:
    # the Euler solver takes explicit Euler steps of dx/dsigma = eps

    def test_zero_velocity_constant(self):
        # a zero eps field is a zero dx/dsigma
        sch = sigma_schedule(10, solver="euler")
        x0 = np.random.default_rng(8).standard_normal((8, 2))
        trajs = sample(unguided(Field(lambda x, s: np.zeros_like(x))), sch, 8, seed=8, x0=x0)
        assert np.array_equal(trajs.points, x0)

    def test_straight_line_field_reaches_target(self):
        # the denoiser D = x - sigma * eps fixed at target is the straight
        # flow x_t = (1 - t) target + t noise; Euler follows it exactly:
        # x(sigma) = target + (x0 - target) sigma / sigma_0 at every level
        target = np.array([2.0, -1.0])
        sch = sigma_schedule(40, 0.01, 5.0, solver="euler")
        x0 = np.array([[5.0, 5.0]])
        seen = []

        def field(x, sigma):
            seen.append((x.copy(), sigma))
            return (x - target[None, :]) / sigma

        trajs = sample(unguided(Field(field)), sch, 1, seed=9, x0=x0)
        assert len(seen) == sch.n_steps
        for x, sigma in seen:
            assert np.abs(x - (target + (x0 - target) * sigma / sch.sigmas[0])).max() < 1e-12
        assert np.abs(trajs.points - target).max() < 1e-12

    def test_oracle_flow_generation(self):
        om = single_gaussian_oracle()
        sch = sigma_schedule(100, 0.002, 80.0, solver="euler")
        trajs = sample(unguided(om), sch, 4000, seed=10)
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
        bare = sample(unguided(self.om), self.sch, 64, seed=11)
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
        provider = GuidedProvider({"main": self.om}, [spec], gmm=self.spec)
        x = np.random.default_rng(16).standard_normal((6, 2)) * 2
        for sigma in (0.2, 1.0, 5.0):
            expected = (self.om.predict_eps(x, sigma)
                        - sigma * 2.0 * classifier_grad(smooth(self.spec, sigma), x, 0))
            tol = 1e-9 * np.abs(expected).max()
            assert np.abs(provider.base_eps(x, sigma, None) - expected).max() <= tol

    def test_classifier_smooths_the_mixture_once_per_sigma(self, monkeypatch):
        calls = []
        real_smooth = oracle.smooth
        monkeypatch.setattr(oracle, "smooth", lambda *a: calls.append(a[1]) or real_smooth(*a))
        spec = GuidanceSpec(kind="classifier", weight=2.0, classifier_class=0)
        provider = GuidedProvider({"main": ScoreModel(2, [8], seed=5)}, [spec], gmm=self.spec)
        x = np.random.default_rng(4).standard_normal((6, 2))
        for _ in range(3):
            for sigma in (0.5, 2.0):
                provider.base_eps(x, sigma, None)
        assert calls == [0.5, 2.0]

    def test_sfg_gate_closed_task_is_bitwise_unguided(self):
        om = single_gaussian_oracle()
        provider = GuidedProvider({"main": om}, [GuidanceSpec(kind="sfg", weight=3.0)])
        guided = sample(provider, self.sch, 64, seed=12)
        base = sample(unguided(om), self.sch, 64, seed=12)
        assert np.array_equal(guided.points, base.points)
        assert not guided.sfg_trace["gate"].any()

    def test_sfg_trace_recorded(self):
        guided = self.run([GuidanceSpec(kind="sfg", weight=1.0)])
        trace = guided.sfg_trace
        assert trace["lambda"].shape == (30, 64)
        assert trace["alpha"].shape == (30, 64)
        assert np.array_equal(trace["gate"], trace["lambda"] > 0) and trace["gate"].any()
        # monotone alpha along every trajectory
        assert np.all(np.diff(trace["alpha"], axis=0) >= -1e-15)
        # chunks on threads assemble the same per-step record in trajectory order
        chunked = self.run([GuidanceSpec(kind="sfg", weight=1.0)], chunk_size=24, threads=2)
        for key in trace:
            assert np.array_equal(chunked.sfg_trace[key], trace[key])

    @pytest.mark.parametrize("h, alpha0", [(0.1, 1.0), (0.03, 2.5)], ids=["default", "nondefault"])
    def test_sfg_manual_state_threading_matches_sampler(self, h, alpha0):
        # re-run the integrator by hand with sfg_step to confirm the state
        # carry v_i = u_{i-1}/||u_{i-1}|| is exactly what the sampler does,
        # with the spec's h and alpha0 reaching the step
        # (start latents and start vectors rebuilt from their rng streams)
        from sfglab.guidance import SfgState, sfg_step
        from sfglab.rng import LATENTS, SFG_START, generator

        spec = GuidanceSpec(kind="sfg", weight=2.0, alpha0=alpha0, h=h)
        n, seed = 8, 13
        guided = self.run([spec], n=n, seed=seed)

        steps = self.sch.sigmas
        x = generator(seed, LATENTS).standard_normal((n, 2)) * steps[0]
        z = generator(seed, SFG_START).standard_normal((n, 2))
        v = z / np.linalg.norm(z, axis=1, keepdims=True)
        state = SfgState(v=v, alpha=np.full(n, alpha0), last_lambda=np.zeros(n))
        for k in range(len(steps) - 1):
            s_cur, s_next = steps[k], steps[k + 1]
            d_cur, state, corr = sfg_step(lambda z: self.om.predict_eps(z, s_cur), x, s_cur, state, spec)
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
        part = self.run([GuidanceSpec(kind="cfg", weight=3.0, companion="uncond",
                                      interval=(0.0, 1.0))], class_ids=1)
        assert np.array_equal(part.points, full.points)

    def test_interval_cfg_covering_no_level_is_bitwise_unguided(self):
        # the schedule's flow times sigma / (1 + sigma) stay at or below 10 / 11
        none = self.run([GuidanceSpec(kind="none")], class_ids=1)
        part = self.run([GuidanceSpec(kind="cfg", weight=3.0, companion="uncond",
                                      interval=(0.95, 0.99))], class_ids=1)
        full = self.run([GuidanceSpec(kind="cfg", weight=3.0, companion="uncond")], class_ids=1)
        assert np.array_equal(part.points, none.points)
        assert not np.array_equal(full.points, none.points)

    def test_interval_cfg_moderates_the_cfg_overshoot(self):
        # strong CFG overshoots past the class mean along +e1; restricting the
        # guidance to the (0.1, 0.8) interval moderates the bias
        full = self.run([GuidanceSpec(kind="cfg", weight=7.0, companion="uncond")],
                        n=300, class_ids=1)
        part = self.run([GuidanceSpec(kind="cfg", weight=7.0, companion="uncond",
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

        sch = sigma_schedule(25, 0.01, 10.0, solver="euler")
        provider = GuidedProvider({"main": Counting()}, [GuidanceSpec(kind="sfg", weight=1.0)])
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
                                  [GuidanceSpec(kind="cfg", weight=3.0, companion="uncond",
                                                interval=(0.3, 0.6))])
        sample(provider, sch, 4, seed=17, class_ids=1)
        # Heun evaluates a predictor at every level but 0 and a corrector at
        # every level after the first but 0
        levels = [*sch.sigmas[:-1], *sch.sigmas[1:-1]]
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
        sch = sigma_schedule(10, 0.05, 5.0, solver="euler")
        trajs = sample(GuidedProvider({"main": m}, [GuidanceSpec(kind="none")]), sch, 8, seed=20)
        assert trajs.points.shape == (8, 2)

    def test_flow_identity_weights_match_the_unguided_provider(self):
        # every model call goes through predict_eps, so identity weights are
        # bitwise the "none" stack, and that is bitwise the empty stack over
        # the flow model alone
        main = ScoreModel(2, [16], param="flow", seed=19)
        table = {"main": main, "bad": ScoreModel(2, [16], param="flow", seed=23)}
        sch = sigma_schedule(10, 0.05, 5.0, solver="euler")

        def run(stack):
            provider = GuidedProvider(table, stack, gmm=make_two_gaussian(4.0, 1.0, 2))
            return sample(provider, sch, 64, seed=20).points

        base = run([GuidanceSpec(kind="none")])
        for spec in (GuidanceSpec(kind="classifier", weight=0.0, classifier_class=0),
                     GuidanceSpec(kind="autoguidance", weight=1.0, companion="bad")):
            assert np.array_equal(run([spec]), base)
        bare = sample(unguided(main), sch, 64, seed=20).points
        assert np.array_equal(bare, base)


class TestFlowReference:
    """sample with the Euler solver against reference loops written out
    here, on a flow-matching model trained briefly on two Gaussians."""

    N, SEED = 40, 31

    @classmethod
    def setup_class(cls):
        cls.gmm = make_two_gaussian(4.0, 1.0, 2)
        cfg = TrainConfig(batches=200, batch_size=64, warmup_batches=10, seed=32, objective="flow_matching")
        cls.model = train(sample_gmm(cls.gmm, 400, seed=33), [32], cfg)
        cls.sch = sigma_schedule(20, 0.01, 10.0, solver="euler")

    def sample(self, stack):
        provider = GuidedProvider({"main": self.model}, stack, gmm=self.gmm)
        return sample(provider, self.sch, self.N, seed=self.SEED)

    def flow_euler(self, weight):
        # Euler in flow coordinates x_t = (1 - t) x: x_t <- x_t + (t' - t) v
        # with v the model's native velocity; under classifier guidance the
        # guided eps goes back to a velocity through eps_to_flow
        ts = self.sch.sigmas / (1.0 + self.sch.sigmas)
        x = initial_latents(self.SEED, self.N, 2, ts[0])
        for t, t_next in zip(ts[:-1], ts[1:]):
            v = self.model.forward(x, t)
            if weight:
                sigma = t / (1.0 - t)
                grad = classifier_grad(smooth(self.gmm, sigma), x / (1.0 - t), 0)
                v = eps_to_flow(flow_to_eps(v, x, t) - sigma * weight * grad, x, t)
            x = x + (t_next - t) * v
        return x

    @pytest.mark.parametrize("stack, weight", [
        ([GuidanceSpec(kind="none")], 0.0),
        ([GuidanceSpec(kind="classifier", weight=2.0, classifier_class=0)], 2.0),
    ], ids=["none", "classifier"])
    def test_matches_euler_in_flow_coordinates(self, stack, weight):
        got = self.sample(stack).points
        want = self.flow_euler(weight)
        assert np.abs(got - want).max() < 1e-12
        assert np.abs(want).max() > 1.0

    def test_sfg_shift_is_alpha_sigma(self):
        # Euler over sigma with the saddle-free step at sigma,
        # so its warm-start shift is alpha * sigma, not alpha * t
        spec = GuidanceSpec(kind="sfg", weight=2.0)
        trajs = self.sample([spec])
        sigmas = self.sch.sigmas
        x = initial_latents(self.SEED, self.N, 2, sigmas[0])
        state = sfg_start(sfg_start_vectors(self.SEED, self.N, 2), spec)
        for s, s_next in zip(sigmas[:-1], sigmas[1:]):
            eps, state, _ = sfg_step(lambda z: self.model.predict_eps(z, s), x, s, state, spec)
            x = x + (s_next - s) * eps
        assert trajs.sfg_trace["gate"].any()
        assert np.abs(trajs.points - x).max() < 1e-12
