"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The two training-heavy
criteria (6 and 7) build their models once per session; everything else is
oracle-backed and fast.
"""

import json
import time

import numpy as np
import pytest

import sfglab as sf
from sfglab.datasets import FractalSpec, GmmSpec, LabeledPointSet, sample_gmm
from sfglab.evaluation import (coverage_entropy, curvature_field, esm_by_region,
                               gaussian_frechet, make_grid, outlier_rate)
from sfglab.guidance import GuidanceSpec, sfg_start, sfg_step
from sfglab.model import OracleModel, TrainConfig, train
from sfglab.rng import derive_seed, generator
from sfglab.sampler import GuidedProvider, sample, sfg_start_vectors, sigma_schedule
from sfglab.svg import field_svg


def report(criterion, ok, detail=""):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion-{criterion}: {detail}")
    assert ok, f"criterion-{criterion}: {detail}"


def random_mixture(rng, max_dim=5, max_k=4):
    k = int(rng.integers(1, max_k + 1))
    n = int(rng.integers(1, max_dim + 1))
    w = rng.random(k) + 0.1
    w /= w.sum()
    means = rng.standard_normal((k, n)) * 3
    if rng.random() < 0.5 and n > 1:
        covs = np.empty((k, n, n))
        for i in range(k):
            a = rng.standard_normal((n, n))
            covs[i] = a @ a.T + (0.1 + rng.random()) * np.eye(n)
    else:
        covs = rng.random(k) * 2 + 0.05
    return GmmSpec(w, means, covs)


class TestCriterion1OracleCorrectness:
    def test_score_and_hessian_match_finite_differences(self):
        start = time.time()
        rng = np.random.default_rng(101)
        worst_score = 0.0
        worst_hess = 0.0
        for trial in range(1000):
            spec = random_mixture(rng)
            sigma = float(rng.random() * 2)
            g = sf.smooth(spec, sigma)
            x = rng.standard_normal((1, spec.dim)) * 2
            step = 1e-5
            fd = np.zeros(spec.dim)
            for i in range(spec.dim):
                e = np.zeros(spec.dim)
                e[i] = step
                fd[i] = (sf.log_density(g, x + e)[0] - sf.log_density(g, x - e)[0]) / (2 * step)
            worst_score = max(worst_score, float(np.abs(sf.score(g, x)[0] - fd).max()))
            if trial % 5 == 0:  # hessian FD is dim^2 evaluations; sample a fifth
                h = sf.hessian(g, x)[0]
                fd_h = np.zeros_like(h)
                for i in range(spec.dim):
                    e = np.zeros(spec.dim)
                    e[i] = step
                    fd_h[:, i] = (sf.score(g, x + e)[0] - sf.score(g, x - e)[0]) / (2 * step)
                worst_hess = max(worst_hess, float(np.abs(h - fd_h).max()))
        elapsed = time.time() - start
        ok = worst_score < 1e-5 and worst_hess < 1e-4 and elapsed < 60
        report(1, ok, f"score fd err {worst_score:.2e} (<1e-5), hessian fd err "
                      f"{worst_hess:.2e} (<1e-4), {elapsed:.1f}s (<60s)")


class TestCriterion2EigenvalueBound:
    def test_sigma_scaled_hessian_bounded_below(self):
        start = time.time()
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(10_000):
            spec = random_mixture(rng, max_dim=4, max_k=3)
            sigma = float(rng.random() * 3 + 0.02)
            g = sf.smooth(spec, sigma)
            x = rng.standard_normal((1, spec.dim)) * 4
            lam_min = sf.full_spectrum(sf.hessian(g, x))[0][0, -1]
            worst = min(worst, sigma * sigma * lam_min)
        elapsed = time.time() - start
        ok = worst >= -1.0 - 1e-9 and elapsed < 60
        report(2, ok, f"min sigma^2 eigenvalue {worst:.12f} (>= -1 - 1e-9), "
                      f"{elapsed:.1f}s (<60s)")


class TestCriterion3PowerIterationFidelity:
    def test_warm_started_iteration_matches_dense_oracle(self):
        start = time.time()
        spec = sf.make_two_gaussian(4.0, 1.0, 2)
        om = OracleModel(spec)
        sigma = 0.5
        lam_max = sf.full_spectrum(sf.hessian(sf.smooth(spec, sigma), np.zeros((1, 2))))[0][0, 0]
        target = sigma * sigma * lam_max
        gspec = GuidanceSpec(kind="sfg", weight=0.0, alpha0=1.0, h=0.01)
        state = sfg_start(sfg_start_vectors(303, 1, 2), gspec)
        x = np.zeros((1, 2))
        for _ in range(25):
            _, state, _ = sfg_step(lambda z: om.predict_eps(z, sigma), x, sigma, state, gspec)
        err = abs(float(state.last_lambda[0]) - target)
        align = abs(float(state.v[0, 0]))
        elapsed = time.time() - start
        ok = err <= 1e-3 * (1 + abs(target)) and align > 0.999 and elapsed < 1.0
        report(3, ok, f"lambda err {err:.2e} (tol {1e-3 * (1 + abs(target)):.2e}), "
                      f"|v.e1| {align:.6f} (>0.999), {elapsed:.2f}s (<1s)")


class TestCriterion4GateSoundness:
    def test_concave_task_never_triggers_and_stays_bitwise(self):
        start = time.time()
        om = OracleModel(GmmSpec([1.0], np.zeros((1, 2)), [1.0]))
        sch = sigma_schedule(50, 0.01, 20.0)
        n = 200  # 200 trajectories x 50 steps = 10^4 sampled states
        guided = sample(GuidedProvider({"main": om}, [GuidanceSpec(kind="sfg", weight=3.0)]),
                        sch, n, seed=404)
        unguided = sample(GuidedProvider({"main": om}, []), sch, n, seed=404)
        n_states = guided.sfg_trace["gate"].size
        fires = int(guided.sfg_trace["gate"].sum())
        bitwise = bool(np.array_equal(guided.points, unguided.points))
        elapsed = time.time() - start
        ok = fires == 0 and bitwise and n_states >= 10_000 and elapsed < 60
        report(4, ok, f"gate fired {fires}/{n_states} states, bitwise equal: {bitwise}, "
                      f"{elapsed:.1f}s (<60s)")


class TestCriterion5CostContract:
    def test_exactly_two_model_evaluations_per_guided_step(self):
        om = OracleModel(GmmSpec([1.0], np.zeros((1, 2)), [1.0]))
        counter = {"n": 0}

        class Counting:
            data_dim = 2
            param = "eps"

            def predict_eps(self, x, sigma, class_ids=None):
                counter["n"] += 1
                return om.predict_eps(x, sigma, class_ids)

        sch = sigma_schedule(40, 0.01, 20.0, solver="euler")
        provider = GuidedProvider({"main": Counting()}, [GuidanceSpec(kind="sfg", weight=2.0)])
        sample(provider, sch, 8, seed=505)
        per_step = counter["n"] / sch.n_steps
        calls = []
        gspec = GuidanceSpec(kind="sfg", weight=1.0)
        st = sfg_start(sfg_start_vectors(506, 1, 2), gspec)
        sfg_step(lambda z: (calls.append(1), om.predict_eps(z, 0.5))[1], np.zeros((1, 2)), 0.5, st, gspec)
        ok = per_step == 2.0 and len(calls) == 2
        report(5, ok, f"{per_step:g} evaluations per guided sampling step (== 2), "
                      f"single step used {len(calls)} (== 2)")


class TestCriterion9FieldStudy:
    def test_curvature_fields_across_smoothing_regimes(self, tmp_path):
        spec = sf.make_two_gaussian(4.0, 1.0, 2)
        grid = make_grid(-4.0, 4.0, 21)
        midpoint = np.array([[0.0, 0.0]])
        checks = []
        svgs = {}
        for var in (4.0, 2.0, 0.5):
            g = sf.smooth(spec, float(np.sqrt(var)))
            field = curvature_field(g, grid)
            mid_lambda = curvature_field(g, midpoint)["lambda_max"][0]
            aligned = bool(np.all(np.abs(field["evec0"][field["gate"] == 1]) > 0.99))
            checks.append((var, mid_lambda, aligned))
            svgs[var] = field_svg(field)
            (tmp_path / f"field_var{var:g}.svg").write_text(svgs[var])
        by_var = {v: (lam, aligned) for v, lam, aligned in checks}
        separated_ok = by_var[0.5][0] > 0 and by_var[2.0][0] > 0
        aligned_ok = all(a for _, _, a in checks)
        layout_ok = all('stroke="#777777"' in s and "<line" in s for s in svgs.values())
        curvature_drawn = 'stroke="#2ca02c"' in svgs[0.5]
        deterministic = svgs[0.5] == field_svg(curvature_field(
            sf.smooth(spec, float(np.sqrt(0.5))), grid))
        ok = separated_ok and aligned_ok and layout_ok and curvature_drawn and deterministic
        report(9, ok, "midpoint lambda by additive variance: "
                      + ", ".join(f"{v}: {lam:+.3f}" for v, lam, _ in checks)
                      + f"; separated regimes positive: {separated_ok}; |cos|>0.99 where "
                        f"gated: {aligned_ok}; SVG layout/determinism: "
                        f"{layout_ok and curvature_drawn and deterministic}")


class TestCriterion10DeterminismAndConversions:
    def test_flow_noise_round_trips(self):
        rng = np.random.default_rng(707)
        v, x = rng.standard_normal(6), rng.standard_normal(6)
        worst = 0.0
        for t in (0.0, 0.25, 0.5, 0.75):
            back = sf.eps_to_flow(sf.flow_to_eps(v, x, t), x, t)
            worst = max(worst, float(np.abs(back - v).max() / np.abs(v).max()))
        ok = worst < 1e-12
        report("10a", ok, f"flow<->noise round trip rel err {worst:.2e} (<1e-12)")

    def test_heun_order_two_on_analytic_gaussian_flow(self):
        v = 1.0
        om = OracleModel(GmmSpec([1.0], np.zeros((1, 2)), [v]))
        x0 = np.array([[0.9, -1.1], [0.5, 0.3]])
        finals = {}
        for n in (40, 80, 160):
            sch = sigma_schedule(n, 0.05, 10.0)
            finals[n] = sample(GuidedProvider({"main": om}, []), sch, 2, seed=708, x0=x0).points
        e1 = np.linalg.norm(finals[40] - finals[160])
        e2 = np.linalg.norm(finals[80] - finals[160])
        ratio = e1 / e2
        sch = sigma_schedule(100, 0.002, 10.0)
        final = sample(GuidedProvider({"main": om}, []), sch, 2, seed=708, x0=x0).points
        analytic = x0 * np.sqrt(v / (v + sch.sigmas[0] ** 2))
        rel = float(np.abs(final - analytic).max() / np.abs(analytic).max())
        ok = 2.8 < ratio < 6.0 and rel < 1e-3
        report("10b", ok, f"halving ratio {ratio:.2f} (order 2), analytic map rel err "
                          f"{rel:.2e} (<1e-3)")

    def test_full_pipeline_bytewise_reproducible_across_threads(self, tmp_path):
        cfg = {
            "task": "fractal",
            "seed": 9,
            "out": str(tmp_path / "run"),
            "data": {"n_train": 400, "fractal": {"depth": 5, "branch_angle": 0.6283,
                                                 "shrink_ratio": 0.75, "jitter_sigma": 0.01}},
            "models": {"main": {"hidden": [24], "conditional": True}},
            "train": {"batches": 60, "batch_size": 50, "warmup_batches": 10, "lr": 1e-3},
            "schedule": {"kind": "sigma", "n_steps": 12, "sigma_min": 0.02, "sigma_max": 5.0},
            "sample": {"n_samples": 40, "class_id": "random", "chunk_size": 8},
            "guidance": [{"kind": "sfg", "weight": 1.0}],
        }
        from sfglab.cli import main
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outputs = {}
        for threads in (1, 3):
            for cmd in ("gen-data", "train", "sample", "eval"):
                rc = main([cmd, "--config", str(path), "--threads", str(threads)])
                assert rc == 0, f"{cmd} failed with {rc}"
            outdir = tmp_path / "run"
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
        ok = outputs[1].keys() == outputs[3].keys() and all(
            outputs[1][k] == outputs[3][k] for k in outputs[1])
        report("10c", ok, f"pipeline outputs byte-identical for threads 1 vs 3 "
                          f"({len(outputs[1])} files)")
