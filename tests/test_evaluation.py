import tracemalloc
import warnings

import numpy as np
import pytest

from sfglab.datasets import (Fractal, FractalSpec, GmmSpec,
                             make_outlier_gmm, make_saddle_gmm, make_simplex_gmm,
                             make_two_gaussian, sample_gmm)
from sfglab.evaluation import (_nearest_mahalanobis, coverage_entropy,
                               curvature_field, esm_by_region, gaussian_frechet, gmm_moments, make_grid,
                               outlier_rate, sfg_stats, sweep_to_csv)
from sfglab import oracle
from sfglab.model import OracleModel
from sfglab.oracle import SmoothedGmm, _kernel, smooth


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
        frac = Fractal(FractalSpec(5, np.pi / 5, 0.75, 0.01, n_classes=2))
        pts = frac.sample(2000, seed=1).points  # nearest-component distance <= own: P(> 6) <= exp(-18)
        assert outlier_rate(pts, frac.gmm, threshold=6.0) == 0.0

    def test_far_points_score_one(self):
        frac = Fractal(FractalSpec(3, np.pi / 5, 0.75, 0.01, n_classes=2))
        pts = np.full((10, 2), 50.0)
        assert outlier_rate(pts, frac.gmm, threshold=4.0) == 1.0

    def test_monotone_in_threshold(self):
        frac = Fractal(FractalSpec(5, np.pi / 5, 0.75, 0.02, n_classes=2))
        pts = frac.sample(500, seed=2).points
        rates = [outlier_rate(pts, frac.gmm, th) for th in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > 0.5 and rates[-1] < 0.01

    def test_gmm_mahalanobis_distance(self):
        spec = make_two_gaussian(8.0, 1.0, 2)
        inside = spec.means.copy()
        assert outlier_rate(inside, spec, threshold=4.0) == 0.0
        far = np.array([[0.0, 30.0]])
        assert outlier_rate(far, spec, threshold=4.0) == 1.0

    def test_threshold_positive(self):
        spec = make_two_gaussian(8.0, 1.0, 2)
        with pytest.raises(ValueError):
            outlier_rate(np.zeros((2, 2)), spec, 0.0)

    def test_nan_distance_is_nan(self):
        # a nan point is neither inlier nor outlier, as coverage_entropy has no nearest mode for it
        spec = make_two_gaussian(4.0, 1.0, 2)
        assert np.isnan(outlier_rate(np.array([[0.0, 0.0], [np.nan, 0.0], [1e3, 0.0]]), spec, 4.0))
        # so is a point with an infinite coordinate: inf * 0 in the isotropic GEMM is nan
        with np.errstate(invalid="ignore"):
            assert np.isnan(outlier_rate(np.array([[0.0, 0.0], [np.inf, 0.0]]), spec, 4.0))
        # the fractal's quadratic forms overflow to inf - inf = nan, silently
        frac = Fractal(FractalSpec(5, np.pi / 5, 0.75, 0.01, n_classes=2))
        huge = frac.sample(50, seed=1).points * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(outlier_rate(huge, frac.gmm, threshold=4.0))


def ref_maha2(points, spec):
    """Squared Mahalanobis distances to every component, the form the metric
    used before it took them from the oracle kernel: the reference."""
    diff = points[:, None, :] - spec.means[None, :, :]
    if spec.isotropic:
        return (diff * diff).sum(axis=2) / spec.covariances[None, :]
    return np.einsum("nki,kij,nkj->nk", diff, np.linalg.inv(spec.covariances), diff)


def ref_coverage_entropy(pts, refs):
    dists = np.linalg.norm(pts[:, None, :] - refs[None, :, :], axis=2)
    p = np.bincount(dists.argmin(axis=1), minlength=len(refs)) / len(pts)
    return float(0.0 - (p[p > 0] * np.log(p[p > 0])).sum())


def nearest_component_draws():
    """(spec, points) pairs: fractal, 256-d simplex and two-Gaussian draws,
    widened so that some 2-d points fall beyond the outlier threshold 4."""
    rng = np.random.default_rng(23)
    frac = Fractal(FractalSpec(8, np.pi / 5, 0.75, 0.005, n_classes=2)).gmm
    simplex = make_simplex_gmm(16, 256, 0.2)
    two = make_two_gaussian(4.0, 1.0, 2)
    out = []
    for spec, n, widen in ((frac, 2000, 0.02), (simplex, 300, 0.2), (two, 500, 1.0)):
        pts = sample_gmm(spec, n, seed=4).points
        out.append((spec, pts + widen * rng.standard_normal(pts.shape)))
    return out


class TestNearestComponent:
    def test_matches_the_reference_forms(self):
        for spec, pts in nearest_component_draws():
            dist, ref = _nearest_mahalanobis(pts, spec), np.sqrt(ref_maha2(pts, spec).min(axis=1))
            # measured 6e-14 on the depth-8 fractal, 1e-14 on the two-Gaussian draws
            assert np.all(np.abs(dist - ref) <= 1e-12 * ref)
            for threshold in (4.0, float(np.median(ref))):  # 256-d draws all lie beyond 4
                assert np.array_equal(dist > threshold, ref > threshold)
                assert outlier_rate(pts, spec, threshold) == float(np.mean(ref > threshold))
            assert 0 < np.mean(dist > 4.0) < 1 or spec.dim > 2
            assert coverage_entropy(pts, spec.means) == ref_coverage_entropy(pts, spec.means)

    def test_points_on_the_means_are_at_distance_zero(self):
        # the expanded isotropic form rounds below 0 on some of these means
        # (down to -2e-11 in 256-d); the clamp keeps their distance defined
        rng = np.random.default_rng(25)
        for dim in (2, 16, 256):
            means = 3.0 * rng.standard_normal((50, dim))
            spec = GmmSpec(np.full(50, 0.02), means, np.full(50, 0.3))
            dist = _nearest_mahalanobis(means, spec)
            assert np.all((dist >= 0.0) & (dist < 1e-4))
            assert outlier_rate(means, spec, threshold=1.0) == 0.0

    def test_assignments_match_the_reference(self):
        for spec, pts in nearest_component_draws():
            quad, _ = _kernel(SmoothedGmm(spec, 0.0), pts)
            assert np.array_equal(quad.argmin(axis=1), ref_maha2(pts, spec).argmin(axis=1))

    @pytest.mark.parametrize("dim", [1, 2, 3, 256])
    def test_coverage_entropy_is_bitwise_the_norm_form(self, dim):
        rng = np.random.default_rng(dim)
        refs = rng.standard_normal((7, dim))
        pts = rng.standard_normal((200, dim)) * 1.5
        assert coverage_entropy(pts, refs) == ref_coverage_entropy(pts, refs)
        with pytest.raises(ValueError, match="points are"):
            coverage_entropy(pts[:, :-1] if dim > 1 else np.zeros((3, 2)), refs)


class TestRowBlocks:
    @staticmethod
    def metrics(pts, spec):
        return (_nearest_mahalanobis(pts, spec).tobytes(), outlier_rate(pts, spec, 4.0),
                coverage_entropy(pts, spec.means))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_blocks_are_bitwise_one_whole_array_call(self, monkeypatch):
        frac, pts = nearest_component_draws()[0]
        block = oracle.BLOCK_CELLS // (frac.n_components * 2)
        cases = [pts[:n] for n in (1, block - 1, block, block + 1, 2000)]
        nan_rows, huge = pts[:40].copy(), pts[:40] * 1e160  # huge: the kernel's inf - inf
        nan_rows[[3, 17, 39]] = np.nan
        cases += [nan_rows, huge]
        blocked = [self.metrics(x, frac) for x in cases]
        monkeypatch.setattr(oracle, "BLOCK_CELLS", 1 << 62)  # every row in one block
        whole = [self.metrics(x, frac) for x in cases]
        for got, ref in zip(blocked, whole):
            assert got[0] == ref[0]
            np.testing.assert_array_equal(got[1:], ref[1:])  # NaN equals NaN here
        assert np.isnan(blocked[-2][1:]).all() and np.isnan(blocked[-1][1:]).all()
        assert not np.isnan(blocked[-3][1:]).any()

    def test_outlier_rate_allocates_under_a_megabyte(self):
        # one whole-array kernel call allocated four (N, k) float64 arrays of 4 MB
        frac, pts = nearest_component_draws()[0]
        tracemalloc.start()
        try:
            outlier_rate(pts, frac, 4.0)
            coverage_entropy(pts, frac.means)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
        pts = sample_gmm(spec, 400, seed=5).points
        ent = coverage_entropy(pts, spec.means)
        assert np.log(2) - 0.05 < ent <= np.log(2)
        frac = Fractal(FractalSpec(4, np.pi / 5, 0.7, 0.01, n_classes=2))
        pts_f = frac.sample(500, seed=6).points
        ent_f = coverage_entropy(pts_f, frac.gmm.means)
        assert 0 < ent_f <= np.log(frac.n_segments)
        # the trunk's two components share a mean and count as one mode
        distinct = np.unique(frac.gmm.means, axis=0)
        assert ent_f == pytest.approx(coverage_entropy(pts_f, distinct), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_no_finite_distance_is_nan(self):
        # 1e160 makes every distance inf, so no point has a nearest mode
        spec = make_two_gaussian(8.0, 1.0, 2)
        huge = sample_gmm(spec, 50, seed=1).points * 1e160
        assert np.isnan(coverage_entropy(huge, spec.means))
        assert outlier_rate(huge, spec, threshold=4.0) == 1.0  # inf is an outlier
        assert np.isnan(coverage_entropy(np.array([[0.1, 0.0], [np.nan, 0.0]]), spec.means))

    def test_empty_sample_set_rejected(self):
        spec = make_two_gaussian(8.0, 1.0, 2)
        for modes in (spec.means, spec.means[:1]):
            with pytest.raises(ValueError, match="empty sample set"):
                coverage_entropy(np.zeros((0, 2)), modes)


def ref_frechet(a, mu, cov):
    """The distance from a dense eigh square root of the sample covariance,
    the form the metric used before its Cholesky factor: the reference."""
    cov_a = np.cov(a, rowvar=False)
    vals, vecs = np.linalg.eigh(cov_a)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    inner = root @ cov @ root
    tr_sqrt = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)).sum()
    diff = a.mean(axis=0) - mu
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov) - 2.0 * tr_sqrt)


def gaussian(mean, variance):
    """The one-component mixture N(mean, variance * I)."""
    return GmmSpec([1.0], [mean], [variance])


class TestGmmMoments:
    def test_fractal_moments_match_a_million_draws(self):
        spec = Fractal(FractalSpec(8, np.pi / 5, 0.75, 0.005, n_classes=2)).gmm
        mu, cov = gmm_moments(spec)
        x = sample_gmm(spec, 10**6, 31).points
        n = len(x)
        dev = x - x.mean(axis=0)
        # standard errors of the sample mean and of each sample covariance entry
        assert np.all(np.abs(x.mean(axis=0) - mu) <= 4.0 * np.sqrt(np.diag(cov) / n))
        products = dev[:, :, None] * dev[:, None, :]
        se = products.std(axis=0) / np.sqrt(n)
        assert np.all(np.abs(products.mean(axis=0) - cov) <= 4.0 * se)

    def test_simplex_moments_match_the_hand_formula(self):
        mu, cov = gmm_moments(make_simplex_gmm(16, 256, 0.2))
        ones = np.r_[np.ones(16), np.zeros(240)]
        assert np.abs(mu - ones / 16).max() <= 1e-15
        assert np.abs(cov - (0.04 * np.eye(256) + np.diag(ones) / 16 - np.outer(mu, mu))).max() <= 1e-15


class TestGaussianFrechet:
    def test_identical_sets_zero(self):
        # a sample set against the Gaussian of its own moments
        pts = np.random.default_rng(7).standard_normal((50, 2))
        spec = GmmSpec([1.0], [pts.mean(axis=0)], [np.cov(pts, rowvar=False)])
        assert abs(gaussian_frechet(pts, spec)) < 1e-8

    def test_mean_shift_closed_form(self):
        m = 1.7
        a = exact_moment_points([m, 0.0], 1.0)
        assert np.isclose(gaussian_frechet(a, gaussian([0.0, 0.0], 1.0)), m * m, atol=1e-6)

    def test_variance_scaling_closed_form(self):
        # N(0, I) vs N(0, 4I) in 2D, either way round: 2 (1 + 4 - 2 * 2) = 2
        for var_a, var_b in ((1.0, 4.0), (4.0, 1.0)):
            a = exact_moment_points([0.0, 0.0], var_a)
            assert np.isclose(gaussian_frechet(a, gaussian([0.0, 0.0], var_b)), 2.0, atol=1e-6)

    def test_zero_iff_moment_matched(self):
        a = exact_moment_points([0.3, -0.2], 1.3)
        assert abs(gaussian_frechet(a, gaussian([0.3, -0.2], 1.3))) < 1e-8
        # four components at unit distance, variance 0.8: covariance 0.8 I + I / 2 = 1.3 I
        offsets = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        mixture = GmmSpec(np.full(4, 0.25), offsets + [0.3, -0.2], np.full(4, 0.8))
        assert abs(gaussian_frechet(a, mixture)) < 1e-8
        c = exact_moment_points([0.3, -0.2], 1.5)
        assert gaussian_frechet(c, mixture) > 1e-3

    @pytest.mark.parametrize("dim", [2, 256])
    def test_cholesky_form_matches_the_eigh_reference(self, dim):
        spec = (Fractal(FractalSpec(8, np.pi / 5, 0.75, 0.005, n_classes=2)).gmm if dim == 2
                else make_simplex_gmm(16, 256, 0.2))
        mu, cov = gmm_moments(spec)
        rng = np.random.default_rng(27)
        for seed in range(3):
            a = sample_gmm(spec, 600, seed).points
            a += 0.1 * rng.standard_normal(a.shape)
            value, ref = gaussian_frechet(a, spec), ref_frechet(a, mu, cov)
            # against the size of the summed terms: the value itself can cancel far below them
            terms = ref + 4.0 * np.trace(np.cov(a, rowvar=False) + cov)
            assert abs(value - ref) <= 1e-12 * terms

    def test_non_finite_values_give_nan(self):
        rng = np.random.default_rng(28)
        for dim in (2, 256):
            x, spec = rng.standard_normal((300, dim)), gaussian(np.zeros(dim), 1.0)
            x[5, 1] = np.nan
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.isnan(gaussian_frechet(x, spec))
            x[5, 1] = np.inf
            with np.errstate(invalid="ignore"):  # np.cov's own inf - inf
                assert np.isnan(gaussian_frechet(x, spec))

    @pytest.mark.parametrize("n_components, dim, n", [(16, 256, 100), (3, 4, 3)])
    def test_fewer_samples_than_dimensions_match_the_eigh_reference(self, n_components, dim, n):
        # a rank-deficient sample covariance: only the exact one is factored
        spec = make_simplex_gmm(n_components, dim, 0.2)
        mu, cov = gmm_moments(spec)
        a = sample_gmm(spec, n, 29).points
        cov_a = np.cov(a, rowvar=False)
        null = dim - np.linalg.matrix_rank(cov_a)
        assert null > 0
        value, ref = gaussian_frechet(a, spec), ref_frechet(a, mu, cov)
        # each form's null eigenvalues are rounding noise of order dim eps |S| |S_a|,
        # which enters the trace through its square root
        noise = np.sqrt(dim * np.finfo(float).eps * np.linalg.norm(cov, 2) * np.linalg.norm(cov_a, 2))
        assert abs(value - ref) <= 2 * null * noise

    def test_preconditions(self):
        for n in (0, 1):
            with pytest.raises(ValueError, match=f"needs at least 2 samples, got {n}"):
                gaussian_frechet(np.zeros((n, 2)), gaussian([0.0, 0.0], 1.0))


class TestCurvatureField:
    def test_rejects_non_2d(self):
        spec = make_simplex_gmm(3, 4, 0.3)
        with pytest.raises(ValueError, match="2D"):
            curvature_field(smooth(spec, 1.0), np.zeros((4, 4)))

    def test_single_gaussian_gate_never_on(self):
        spec = GmmSpec([1.0], np.zeros((1, 2)), [1.0])
        field = curvature_field(smooth(spec, 0.5), make_grid(-2, 2, 5))
        assert len(field["gate"]) == 25 and not field["gate"].any()

    def test_midpoint_saddle_alignment(self):
        # separated two-Gaussian regimes: additive variance 2 and 0.5
        spec = make_two_gaussian(4.0, 1.0, 2)
        for var in (2.0, 0.5):
            g = smooth(spec, float(np.sqrt(var)))
            field = curvature_field(g, np.array([[0.0, 0.0]]))
            assert field["gate"][0] == 1
            assert abs(field["evec0"][0]) > 0.99  # aligned with the inter-mode axis

    def test_merged_regime_midpoint_not_saddle(self):
        # additive variance 4 on separation 4: -1/5 + 4/25 < 0 at the midpoint
        spec = make_two_gaussian(4.0, 1.0, 2)
        field = curvature_field(smooth(spec, 2.0), np.array([[0.0, 0.0]]))
        assert field["gate"][0] == 0

    def test_classifier_columns_present(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        field = curvature_field(smooth(spec, 1.0), make_grid(-3, 3, 3))
        assert list(field) == ["x0", "x1", "score0", "score1", "lambda_max", "evec0", "evec1",
                               "gate", "clf0_0", "clf0_1", "clf1_0", "clf1_1"]
        assert all(col.shape == (9,) for col in field.values())


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


def reference_table_bytes(rows):
    """The writer that `sweep_to_csv` replaced: its bytes are the table format."""
    keys = []
    for row in rows:
        for k in row:
            if k not in keys:
                keys.append(k)

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return f"{v:.9g}"

    lines = [",".join(keys)] + [",".join(cell(row.get(k)) for k in keys) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestSweepToCsv:
    @pytest.mark.parametrize("rows", [
        [],
        [{}, {}],
        [{"w": 1.5, "name": "sfg", "n": 3}],
        [{"w": np.float64(0.1), "ok": True, "big": 2**60, "k": np.int64(-5)},
         {"w": -0.0, "extra": None, "k": 7},
         {"extra": "tag", "w": np.nan, "big": np.inf, "ok": False},
         {"w": 5e-324, "k": 1e16, "name": ""}],
    ], ids=["no_rows", "empty_rows", "one_row", "mixed"])
    def test_bytes_match_reference_writer(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        sweep_to_csv(rows, path)
        assert path.read_bytes() == reference_table_bytes(rows)

    def test_curvature_field_table_bytes(self, tmp_path):
        # the columns write the bytes their per-point rows gave, on the benchmark's
        # 22 x 22 grid, with one- and two-digit class ids
        for labels in ([0, 1], [10, 11]):
            spec = GmmSpec([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], [1.0, 1.0], labels=labels)
            field = curvature_field(smooth(spec, 0.7), make_grid(-4, 4, 22))
            rows = [dict(zip(field, cells)) for cells in zip(*(c.tolist() for c in field.values()))]
            assert len(rows) == 484 and f"clf{labels[1]}_1" in rows[0]
            path = tmp_path / "field.csv"
            sweep_to_csv(field, path)
            assert path.read_bytes() == reference_table_bytes(rows)

    def test_columns_write_like_their_rows(self, tmp_path):
        cols = {"w": np.array([0.5, -0.0, np.nan]), "k": np.array([1, -2, 3]),
                "name": ["a", None, ""], "mixed": [1.5, "x", None], "n": [2**60, True, 7]}
        rows = [dict(zip(cols, cells)) for cells in zip(*cols.values())]
        path = tmp_path / "t.csv"
        sweep_to_csv(cols, path)
        assert path.read_bytes() == reference_table_bytes(rows)
        with pytest.raises(ValueError, match="differ in length"):
            sweep_to_csv({"a": [1.0, 2.0], "b": [1.0]}, path)
