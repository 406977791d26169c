import numpy as np
import pytest

from sfglab.datasets import (FractalSpec, GmmSpec, LabeledPointSet, make_fractal,
                             make_outlier_gmm, make_saddle_gmm, make_simplex_gmm,
                             make_two_gaussian, sample_gmm)
from sfglab.evaluation import (EvalReport, coverage_entropy, curvature_field,
                               esm_by_region, gaussian_frechet, make_grid,
                               outlier_rate, sfg_stats)
from sfglab.model import OracleModel
from sfglab.oracle import smooth


def exact_moment_points(mean, cov_scale, n=8):
    """Point set with exact sample mean `mean` and covariance cov_scale * I (2D)."""
    c = np.sqrt(cov_scale * (n - 1) / (n / 2))
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    pts = np.concatenate([c * base, c * base])[:n]
    return pts + np.asarray(mean)


class TestEsmByRegion:
    def test_oracle_model_scores_zero_everywhere(self):
        base = make_simplex_gmm(4, 8, 0.3)
        specs = {"mode": base, "saddle": make_saddle_gmm(base),
                 "outlier": make_outlier_gmm(base)}
        rows = esm_by_region(OracleModel(base), specs, [0.1, 1.0], 50, seed=0)
        assert len(rows) == 6
        for r in rows:
            assert r["esm"] < 1e-20
            assert np.isclose(r["t"], r["sigma"] / (1 + r["sigma"]))

    def test_requires_mode_spec(self):
        base = make_simplex_gmm(3, 4, 0.3)
        with pytest.raises(ValueError, match="mode"):
            esm_by_region(OracleModel(base), {"saddle": base}, [0.1], 10, seed=0)

    def test_dimension_agreement_required(self):
        a = make_simplex_gmm(3, 4, 0.3)
        b = make_simplex_gmm(3, 5, 0.3)
        with pytest.raises(ValueError, match="ambient"):
            esm_by_region(OracleModel(a), {"mode": a, "saddle": b}, [0.1], 10, seed=0)

    def test_deterministic(self):
        base = make_simplex_gmm(3, 4, 0.3)
        specs = {"mode": base, "saddle": make_saddle_gmm(base)}

        class Half:
            data_dim = 4
            param = "eps"

            def __init__(self):
                self.om = OracleModel(base)

            def predict_eps(self, x, sigma, class_ids=None):
                return 0.5 * self.om.predict_eps(x, sigma, class_ids)

        r1 = esm_by_region(Half(), specs, [0.2, 0.5], 40, seed=3)
        r2 = esm_by_region(Half(), specs, [0.2, 0.5], 40, seed=3)
        assert r1 == r2
        assert all(r["esm"] > 0 for r in r1)


class TestOutlierRate:
    def test_on_manifold_samples_score_zero(self):
        frac = make_fractal(FractalSpec(5, np.pi / 5, 0.75, 0.0, n_classes=2))
        pts = frac.sample(200, seed=1)
        assert outlier_rate(pts, frac, threshold=0.01) == 0.0

    def test_far_points_score_one(self):
        frac = make_fractal(FractalSpec(3, np.pi / 5, 0.75, 0.0, n_classes=2))
        pts = LabeledPointSet(np.full((10, 2), 50.0), np.zeros(10, dtype=int))
        assert outlier_rate(pts, frac, threshold=1.0) == 1.0

    def test_monotone_in_threshold(self):
        frac = make_fractal(FractalSpec(5, np.pi / 5, 0.75, 0.02, n_classes=2))
        pts = frac.sample(500, seed=2)
        rates = [outlier_rate(pts, frac, th) for th in (0.01, 0.03, 0.1, 0.5)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_gmm_mahalanobis_distance(self):
        spec = make_two_gaussian(8.0, 1.0, 2)
        inside = LabeledPointSet(spec.means.copy(), [0, 1])
        assert outlier_rate(inside, spec, threshold=4.0) == 0.0
        far = LabeledPointSet(np.array([[0.0, 30.0]]), [0])
        assert outlier_rate(far, spec, threshold=4.0) == 1.0

    def test_threshold_positive(self):
        spec = make_two_gaussian(8.0, 1.0, 2)
        with pytest.raises(ValueError):
            outlier_rate(LabeledPointSet(np.zeros((2, 2)), [0, 0]), spec, 0.0)


class TestCoverageEntropy:
    def test_single_mode_zero(self):
        pts = np.random.default_rng(3).standard_normal((100, 2)) * 0.1
        modes = np.array([[0.0, 0.0], [10.0, 10.0]])
        ent = coverage_entropy(pts, modes)
        assert ent == 0.0 and np.copysign(1.0, ent) == 1.0  # +0.0, not -0.0

    def test_uniform_assignment_is_log_k(self):
        k = 5
        modes = np.stack([[10.0 * i, 0.0] for i in range(k)])
        pts = np.repeat(modes, 20, axis=0)
        assert np.isclose(coverage_entropy(pts, modes), np.log(k))

    def test_bounded_by_log_modes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            k = int(rng.integers(1, 8))
            modes = rng.standard_normal((k, 2)) * 3
            pts = rng.standard_normal((200, 2)) * 2
            assert coverage_entropy(pts, modes) <= np.log(k) + 1e-12

    def test_gmm_and_fractal_references(self):
        spec = make_two_gaussian(6.0, 0.5, 2)
        pts = sample_gmm(spec, 400, seed=5)
        ent = coverage_entropy(pts, spec)
        assert np.log(2) - 0.05 < ent <= np.log(2)
        frac = make_fractal(FractalSpec(4, np.pi / 5, 0.7, 0.01, n_classes=2))
        ent_f = coverage_entropy(frac.sample(500, seed=6), frac)
        assert 0 < ent_f <= np.log(frac.n_segments)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_no_finite_distance_is_nan(self):
        # 1e160 makes every distance inf, so no point has a nearest mode
        spec = make_two_gaussian(8.0, 1.0, 2)
        huge = sample_gmm(spec, 50, seed=1).points * 1e160
        assert np.isnan(coverage_entropy(huge, spec))
        assert outlier_rate(huge, spec, threshold=4.0) == 1.0  # inf is an outlier
        assert np.isnan(coverage_entropy(np.array([[0.1, 0.0], [np.nan, 0.0]]), spec))


class TestGaussianFrechet:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(7).standard_normal((50, 2))
        assert gaussian_frechet(pts, pts.copy()) < 1e-8

    def test_mean_shift_closed_form(self):
        m = 1.7
        a = exact_moment_points([0.0, 0.0], 1.0)
        b = exact_moment_points([m, 0.0], 1.0)
        assert np.isclose(gaussian_frechet(a, b), m * m, atol=1e-6)

    def test_variance_scaling_closed_form(self):
        # N(0, I) vs N(0, 4I) in 2D: 2 (1 + 4 - 2 * 2) = 2
        a = exact_moment_points([0.0, 0.0], 1.0)
        b = exact_moment_points([0.0, 0.0], 4.0)
        assert np.isclose(gaussian_frechet(a, b), 2.0, atol=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((60, 3)), rng.standard_normal((70, 3)) * 1.4 + 0.3
        assert abs(gaussian_frechet(a, b) - gaussian_frechet(b, a)) < 1e-8

    def test_zero_iff_moment_matched(self):
        a = exact_moment_points([0.3, -0.2], 1.3)
        b = exact_moment_points([0.3, -0.2], 1.3) * 1.0
        assert gaussian_frechet(a, b) < 1e-8
        c = exact_moment_points([0.3, -0.2], 1.5)
        assert gaussian_frechet(a, c) > 1e-3

    def test_preconditions(self):
        with pytest.raises(ValueError, match="nonempty"):
            gaussian_frechet(np.zeros((0, 2)), np.zeros((5, 2)))
        with pytest.raises(ValueError, match="dimension"):
            gaussian_frechet(np.zeros((5, 2)), np.zeros((5, 3)))
        with pytest.raises(ValueError, match="more samples"):
            gaussian_frechet(np.zeros((2, 2)), np.zeros((5, 2)))


class TestCurvatureField:
    def test_rejects_non_2d(self):
        spec = make_simplex_gmm(3, 4, 0.3)
        with pytest.raises(ValueError, match="2D"):
            curvature_field(smooth(spec, 1.0), np.zeros((4, 4)))

    def test_single_gaussian_gate_never_on(self):
        spec = GmmSpec([1.0], np.zeros((1, 2)), [1.0])
        rows = curvature_field(smooth(spec, 0.5), make_grid(-2, 2, 5))
        assert all(r["gate"] == 0 for r in rows)

    def test_midpoint_saddle_alignment(self):
        # separated two-Gaussian regimes: additive variance 2 and 0.5
        spec = make_two_gaussian(4.0, 1.0, 2)
        for var in (2.0, 0.5):
            g = smooth(spec, float(np.sqrt(var)))
            rows = curvature_field(g, np.array([[0.0, 0.0]]))
            assert rows[0]["gate"] == 1
            assert abs(rows[0]["evec0"]) > 0.99  # aligned with the inter-mode axis

    def test_merged_regime_midpoint_not_saddle(self):
        # additive variance 4 on separation 4: -1/5 + 4/25 < 0 at the midpoint
        spec = make_two_gaussian(4.0, 1.0, 2)
        rows = curvature_field(smooth(spec, 2.0), np.array([[0.0, 0.0]]))
        assert rows[0]["gate"] == 0

    def test_classifier_columns_present(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        rows = curvature_field(smooth(spec, 1.0), make_grid(-3, 3, 3))
        for key in ("score0", "score1", "clf0_0", "clf0_1", "clf1_0", "clf1_1",
                    "lambda_max", "evec0", "evec1", "gate"):
            assert key in rows[0]


class TestReportAndStats:
    def test_sfg_stats_summary(self):
        trace = {
            "lambda": np.array([[-1.0, 0.5], [0.2, -0.3]]),
            "gate": np.array([[False, True], [True, False]]),
            "alpha": np.array([[1.0, 1.0], [1.0, 1.3]]),
        }
        stats = sfg_stats(trace)
        assert stats["gate_on_fraction"] == 0.5
        assert stats["lambda_max"] == 0.5
        assert stats["lambda_min"] == -1.0
        assert np.isclose(stats["alpha_final_mean"], 1.15)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            EvalReport(outlier_rate=1.5)
        with pytest.raises(ValueError):
            EvalReport(frechet=float("nan"))

    def test_report_round_trip(self, tmp_path):
        rep = EvalReport(outlier_rate=0.1, coverage_entropy=1.2, frechet=0.5)
        rep.to_json(tmp_path / "r.json")
        import json
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded["outlier_rate"] == 0.1
