import itertools

import numpy as np
import pytest

from sfglab.datasets import (Fractal, FractalSpec, GmmSpec, LabeledPointSet,
                             make_outlier_gmm, make_saddle_gmm, make_simplex_gmm,
                             make_two_gaussian, sample_gmm)
from sfglab.oracle import score, smooth
from sfglab.rng import generator

SQRT2 = np.sqrt(2.0)


def pairwise_distances(means):
    return [np.linalg.norm(means[i] - means[j])
            for i, j in itertools.combinations(range(len(means)), 2)]


class TestSimplex:
    def test_paper_configuration(self):
        spec = make_simplex_gmm(16, 256, 0.2)
        assert spec.n_components == 16
        assert spec.dim == 256
        assert np.allclose(pairwise_distances(spec.means), SQRT2)
        assert np.allclose(spec.covariances, 0.04)
        assert np.allclose(spec.weights, 1 / 16)
        assert list(spec.labels) == list(range(16))

    def test_two_components_are_basis_vectors(self):
        spec = make_simplex_gmm(2, 2, 1.0)
        assert np.array_equal(spec.means, np.eye(2))
        assert np.isclose(np.linalg.norm(spec.means[0] - spec.means[1]), SQRT2)

    def test_three_in_four_pairwise(self):
        spec = make_simplex_gmm(3, 4, 0.5)
        for d in pairwise_distances(spec.means):
            assert abs(d - SQRT2) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="n_components <= ambient_dim"):
            make_simplex_gmm(5, 3, 0.2)

    def test_pairwise_distance_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(2, n + 1))
            s = float(rng.random() + 0.01)
            spec = make_simplex_gmm(k, n, s)
            for d in pairwise_distances(spec.means):
                assert abs(d - SQRT2) < 1e-12


class TestSaddleAndOutlier:
    def test_counts(self):
        base = make_simplex_gmm(16, 256, 0.2)
        assert make_saddle_gmm(base).n_components == 120  # C(16, 2)

    def test_two_component_midpoint(self):
        base = make_simplex_gmm(2, 2, 0.3)
        saddle = make_saddle_gmm(base)
        assert saddle.n_components == 1
        assert np.allclose(saddle.means[0], [0.5, 0.5])

    def test_three_component_parent_distances(self):
        base = make_simplex_gmm(3, 5, 0.2)
        saddle = make_saddle_gmm(base)
        assert saddle.n_components == 3
        for mid in saddle.means:
            dists = sorted(np.linalg.norm(base.means - mid, axis=1))
            assert abs(dists[0] - SQRT2 / 2) < 1e-12
            assert abs(dists[1] - SQRT2 / 2) < 1e-12

    def test_every_saddle_is_midpoint_of_exactly_one_pair(self):
        base = make_simplex_gmm(6, 8, 0.2)
        saddle = make_saddle_gmm(base)
        mids = {tuple(np.round((base.means[i] + base.means[j]) / 2, 12))
                for i, j in itertools.combinations(range(6), 2)}
        got = {tuple(np.round(m, 12)) for m in saddle.means}
        assert mids == got

    def test_saddle_requires_two_components(self):
        base = make_simplex_gmm(1, 2, 0.2)
        with pytest.raises(ValueError, match="at least 2"):
            make_saddle_gmm(base)

    def test_outlier_doubles_means_keeps_scale(self):
        base = make_simplex_gmm(16, 256, 0.2)
        out = make_outlier_gmm(base)
        assert np.allclose(pairwise_distances(out.means), 2 * SQRT2)
        assert np.allclose(out.covariances, base.covariances)

    def test_outlier_mean_norms(self):
        base = make_simplex_gmm(2, 3, 0.5)
        out = make_outlier_gmm(base)
        assert np.allclose(np.linalg.norm(out.means, axis=1), 2.0)


class TestTwoGaussian:
    def test_standard_configuration(self):
        spec = make_two_gaussian(4.0, 1.0, 2)
        assert np.allclose(spec.means, [[-2, 0], [2, 0]])
        assert np.allclose(spec.covariances, 1.0)
        assert list(spec.labels) == [0, 1]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            make_two_gaussian(0.0, 1.0, 2)
        with pytest.raises(ValueError):
            make_two_gaussian(1.0, -1.0, 2)

    def test_midpoint_score_vanishes(self):
        spec = make_two_gaussian(2.0, 1.0, 2)
        s = score(smooth(spec, 0.0), np.zeros(2))
        assert np.abs(s).max() < 1e-12


class TestFractal:
    def test_trunk_only(self):
        frac = Fractal(FractalSpec(1, np.pi / 5, 0.75, 0.01, n_classes=1))
        assert np.array_equal(frac.gmm.means, [[0.0, 0.5]])
        assert np.allclose(frac.gmm.covariances, [np.diag([1e-4, 1 / 12 + 1e-4])], rtol=1e-14, atol=0)
        pts = frac.sample(200, seed=1)
        assert np.abs(pts.points[:, 0]).max() < 0.05
        assert set(pts.labels) == {0}

    def test_segment_count(self):
        for depth in (1, 2, 5, 8):
            classes = 1 if depth == 1 else 2
            frac = Fractal(FractalSpec(depth, np.pi / 5, 0.75, 0.005, n_classes=classes))
            assert frac.n_segments == 2**depth - 1
            assert frac.gmm.n_components == frac.n_segments + classes - 1  # the trunk once per class

    def test_default_task_builds(self):
        frac = Fractal(FractalSpec(8, np.pi / 5, 0.75, 0.005))
        pts = frac.sample(500, seed=3)
        assert set(np.unique(pts.labels)) <= {0, 1}
        assert len(pts) == 500

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            FractalSpec(0, np.pi / 5, 0.75, 0.01)

    def test_zero_jitter_rejected(self):
        for jitter in (0.0, -0.01, np.inf):
            with pytest.raises(ValueError, match="jitter_sigma"):
                FractalSpec(6, np.pi / 4, 0.7, jitter)

    @pytest.mark.parametrize("n_classes", [1, 2])
    def test_mixture_has_the_moments_of_each_jittered_segment(self, n_classes):
        a, r, j = np.pi / 4, 0.7, 0.02
        frac = Fractal(FractalSpec(4, a, r, j, n_classes=n_classes))
        # the tree: a unit trunk up from the origin; segment i > 0 starts at the end
        # of its parent (i - 1) // 2, turned by +a (odd i) or -a and shrunk by r
        d = frac.ends - frac.starts
        length = np.linalg.norm(d, axis=1)
        parent = (np.arange(1, 15) - 1) // 2
        assert np.array_equal(frac.starts[0], [0, 0]) and np.array_equal(frac.ends[0], [0, 1])
        assert np.allclose(frac.starts[1:], frac.ends[parent], rtol=0, atol=1e-15)
        assert np.allclose(length[1:], r * length[parent], rtol=1e-14, atol=0)
        cross = d[parent, 0] * d[1:, 1] - d[parent, 1] * d[1:, 0]
        turn = np.arctan2(cross, (d[parent] * d[1:]).sum(axis=1))
        assert np.allclose(turn, np.tile([a, -a], 7), rtol=0, atol=1e-14)
        # a uniform point on start + t d plus N(0, j^2 I): mean start + d / 2,
        # covariance d d^T / 12 + j^2 I, weight proportional to |d|
        means = frac.starts + d / 2
        covs = d[:, :, None] * d[:, None, :] / 12 + j * j * np.eye(2)
        weights = length / length.sum()
        classes = np.r_[-1, 0, 1, 0, 0, 1, 1, [0] * 4, [1] * 4]  # level-1 ancestor; -1 the trunk
        g = frac.gmm
        if n_classes == 1:
            rows, labels, share = np.arange(15), np.zeros(15), np.ones(15)
        else:  # the trunk once per class at half its weight
            rows, labels = np.r_[0, np.arange(15)], np.r_[0, 1, classes[1:]]
            share = np.r_[0.5, 0.5, [1] * 14]
        assert np.allclose(g.weights, weights[rows] * share, rtol=1e-14, atol=0)
        assert np.allclose(g.means, means[rows], rtol=1e-14, atol=1e-15)
        assert np.allclose(g.covariances, covs[rows], rtol=1e-13, atol=1e-16)
        assert np.array_equal(g.labels, labels)


class TestSampleGmm:
    def test_single_component_mean(self):
        spec = GmmSpec([1.0], np.zeros((1, 3)), [1.0])
        pts = sample_gmm(spec, 10**5, seed=0).points
        assert np.abs(pts.mean(axis=0)).max() < 0.02

    def test_seed_determinism(self):
        spec = make_simplex_gmm(4, 6, 0.3)
        a = sample_gmm(spec, 500, seed=11)
        b = sample_gmm(spec, 500, seed=11)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_training_set_size(self):
        spec = make_simplex_gmm(16, 256, 0.2)
        assert len(sample_gmm(spec, 1000, seed=1)) == 1000

    def test_component_frequencies_chi_square(self):
        spec = make_simplex_gmm(16, 32, 0.2)
        labels = sample_gmm(spec, 10**5, seed=5).labels
        counts = np.bincount(labels, minlength=16)
        expected = 10**5 / 16
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < 37.698  # 0.999 quantile of chi2(15): p > 0.001

    @pytest.mark.parametrize("spec", [
        Fractal(FractalSpec(6, np.pi / 5, 0.75, 0.005)).gmm,
        GmmSpec([0.3, 0.0, 0.7], np.arange(9.0).reshape(3, 3),
                np.stack([np.eye(3) + 0.5 * np.ones((3, 3)) * s for s in (0.1, 1.0, 2.0)])),
    ], ids=["fractal", "empty_component"])
    def test_full_covariance_sampling_matches_the_mask_loop(self, spec):
        rng = generator(8)
        comps = rng.choice(spec.n_components, size=3000, p=spec.weights)
        eps = rng.standard_normal((3000, spec.dim))
        chol = np.linalg.cholesky(spec.covariances)
        got = sample_gmm(spec, 3000, seed=8)
        # bitwise the gathered form: each draw's own factor times its vector
        gathered = spec.means[comps] + np.einsum("nij,nj->ni", chol[comps], eps)
        assert got.points.tobytes() == gathered.tobytes()
        assert np.array_equal(got.labels, spec.labels[comps])
        # and within a few ulp of the terms of one boolean mask and one
        # product per component: the two sum the same terms in other orders
        pts = np.empty((3000, spec.dim))
        for j in range(spec.n_components):
            rows = comps == j
            if rows.any():
                pts[rows] = spec.means[j] + eps[rows] @ chol[j].T
        terms = np.abs(spec.means[comps]) + np.einsum("nij,nj->ni", np.abs(chol[comps]), np.abs(eps))
        assert np.all(np.abs(got.points - pts) <= 4 * np.spacing(terms))

    def test_full_covariance_sampling(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 2))
        cov = a @ a.T + 0.5 * np.eye(2)
        spec = GmmSpec([1.0], np.zeros((1, 2)), cov[None])
        pts = sample_gmm(spec, 50000, seed=4).points
        assert np.abs(np.cov(pts, rowvar=False) - cov).max() < 0.05


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GmmSpec([0.5, 0.4], np.zeros((2, 2)), [1.0, 1.0])

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[[1.0, 0.5], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="asymmetric"):
            GmmSpec([1.0], np.zeros((1, 2)), cov)

    def test_indefinite_covariance_rejected(self):
        cov = np.array([[[1.0, 0.0], [0.0, -1.0]]])
        with pytest.raises(ValueError, match="positive definite"):
            GmmSpec([1.0], np.zeros((1, 2)), cov)
        covs = np.stack([np.eye(2), np.diag([1.0, 0.0]), -np.eye(2)])
        with pytest.raises(ValueError, match="covariance 1 is not positive definite"):
            GmmSpec(np.full(3, 1 / 3), np.zeros((3, 2)), covs)

    def test_labels_length(self):
        with pytest.raises(ValueError, match="per component"):
            GmmSpec([0.5, 0.5], np.zeros((2, 2)), [1.0, 1.0], labels=[0])


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        ps = LabeledPointSet(rng.standard_normal((40, 3)), rng.integers(0, 3, 40))
        path = tmp_path / "pts.csv"
        ps.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "x0,x1,x2,label,region"
        back = LabeledPointSet.from_csv(path)
        assert np.allclose(back.points, ps.points, rtol=1e-8)
        assert np.array_equal(back.labels, ps.labels)

    @pytest.mark.parametrize("n", [0, 2])
    def test_zero_width_points_rejected(self, n):
        with pytest.raises(ValueError, match="at least one coordinate"):
            LabeledPointSet(np.zeros((n, 0)), np.zeros(n, dtype=int))

    def test_write_is_stable_at_nine_digits(self, tmp_path):
        rng = np.random.default_rng(4)
        ps = LabeledPointSet(rng.standard_normal((25, 2)), np.zeros(25, dtype=int))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ps.to_csv(p1)
        LabeledPointSet.from_csv(p1).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


def reference_csv_bytes(ps):
    """The per-value f-string writer that `to_csv` replaced: its bytes are the
    point-set format."""
    header = ",".join([f"x{i}" for i in range(ps.dim)] + ["label", "region"])
    lines = [header]
    for row, lab in zip(ps.points, ps.labels):
        coords = ",".join(f"{v:.9g}" for v in row)
        lines.append(f"{coords},{lab},")
    return ("\n".join(lines) + "\n").encode("utf-8")


EDGE_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310,
               1.7976931348623157e308, 1e16, 123456789.5]


def _edge_sets():
    rng = np.random.default_rng(11)
    edge = np.array(EDGE_VALUES)
    wide = rng.standard_normal((6, 256)) * 10.0 ** rng.integers(-12, 12, (6, 256))
    wide[0, :10] = edge
    return {
        "edge_values": LabeledPointSet(edge.reshape(5, 2), [-5, 2**31 - 1, 0, 3, 1]),
        "no_region": LabeledPointSet(edge.reshape(2, 5), [0, -5]),
        "zero_rows": LabeledPointSet(np.zeros((0, 3)), np.zeros(0, dtype=int)),
        "one_column": LabeledPointSet(edge.reshape(10, 1), np.arange(10) - 5),
        "256_columns": LabeledPointSet(wide, [2**31 - 1, -5, 0, 1, 2, 3]),
    }


class TestCsvFormat:
    @pytest.mark.parametrize("name", sorted(_edge_sets()))
    def test_to_csv_bytes_match_reference_writer(self, tmp_path, name):
        ps = _edge_sets()[name]
        path = tmp_path / "pts.csv"
        ps.to_csv(path)
        assert path.read_bytes() == reference_csv_bytes(ps)

    def test_from_csv_is_per_cell_float_bit_for_bit(self, tmp_path):
        rows = [["1_0", " 2.5", "3.25 ", "-0"],
                ["nan", "-inf", "1e-320", "4.9e-324"],
                ["0.1", "1E5", "+7", "1.7976931348623157e308"]]
        path = tmp_path / "pts.csv"
        path.write_text("x0,x1,x2,x3,label,region\n"
                        + "".join(",".join(r) + f", {i} ,tag\n" for i, r in enumerate(rows)))
        back = LabeledPointSet.from_csv(path)
        want = np.array([[float(c) for c in r] for r in rows])
        assert back.points.shape == (3, 4)
        assert back.points.tobytes() == want.tobytes()
        assert back.labels.tolist() == [0, 1, 2]

    def test_zero_rows_read_back_with_their_width(self, tmp_path):
        path = tmp_path / "pts.csv"
        LabeledPointSet(np.zeros((0, 3)), np.zeros(0, dtype=int)).to_csv(path)
        assert LabeledPointSet.from_csv(path).points.shape == (0, 3)

    @pytest.mark.parametrize("body, message", [
        ("0.5,1.5,0,\n0.5,abc,1,\n", "line 3: could not convert string to float: 'abc'"),
        ("0.5,1.5,1.5,\n", "line 2: invalid literal for int() with base 10: '1.5'"),
        ("0.5,1.5,0,\n0.5,1.5,0,\n0.5,0,\n", "line 4: 3 fields, expected 4"),
        ("0.5,1.5,0,\n0.5,1.5,99999999999999999999,\n",
         "line 3: label 99999999999999999999 is outside the int64 range"),
        ("0.5,1.5,-9223372036854775809,\n", "line 2: label -9223372036854775809 is outside the int64 range"),
    ])
    def test_bad_rows_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "pts.csv"
        path.write_text("x0,x1,label,region\n" + body)
        with pytest.raises(ValueError) as info:
            LabeledPointSet.from_csv(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("cell", ["0.5", "1_0"], ids=["column_reader", "line_reader"])
    def test_tagged_csv_of_an_older_version_reads(self, tmp_path, cell):
        # versions before 0.5.0 could write a region tag per row; the region
        # cell is now read past, whatever it holds
        rows = [(f"{cell},1.5,0", "mode"), ("-2,3,1", "saddle"), ("4,5e-3,2", ""), ("6,7,0", " outlier"),
                ("8,9,1", "a\x1cb")]
        tagged, untagged = tmp_path / "tagged.csv", tmp_path / "untagged.csv"
        tagged.write_text("x0,x1,label,region\n" + "".join(f"{row},{tag}\n" for row, tag in rows))
        untagged.write_text("x0,x1,label,region\n" + "".join(f"{row},\n" for row, _ in rows))
        back, want = LabeledPointSet.from_csv(tagged), LabeledPointSet.from_csv(untagged)
        assert back.points.tobytes() == want.points.tobytes()
        assert back.labels.tolist() == want.labels.tolist() == [0, 1, 2, 0, 1]


def reference_from_csv(path):
    """The per-line reader that `from_csv`'s one `np.loadtxt` call replaced:
    each line stripped and split at commas, blank lines skipped, `float()`
    per coordinate and `int()` per label. Returns (points, labels)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        n = len(header) - 2
        flat, labs = [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            assert len(parts) == n + 2
            flat.extend(map(float, parts[:n]))
            labs.append(int(parts[n]))
    return np.array(flat, dtype=float).reshape(len(labs), n), np.array(labs, dtype=np.int64)


def assert_reads_like_reference(path):
    points, labels = reference_from_csv(path)
    back = LabeledPointSet.from_csv(path)
    assert back.points.flags.c_contiguous and back.points.dtype == np.float64
    assert back.points.shape == points.shape
    assert back.points.tobytes() == points.tobytes()
    assert back.labels.tobytes() == labels.tobytes()


# printf formats the random sets mix, one drawn per cell
CELL_FORMATS = ["%.9g", "%.17g", "%r", "%.6e", "%.3f"]


class TestColumnReader:
    @pytest.mark.parametrize("shape", [(20000, 2), (600, 256)], ids=["20000x2", "600x256"])
    def test_random_sets_read_like_the_line_reader(self, tmp_path, shape):
        rng = np.random.default_rng(shape[1])
        points = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        labels = rng.integers(-2**63, 2**63 - 1, shape[0], dtype=np.int64, endpoint=True)
        written = tmp_path / "written.csv"
        LabeledPointSet(points, labels).to_csv(written)
        assert_reads_like_reference(written)

        # mixed formats, and region tags as files written before 0.5.0 could hold
        tags = rng.choice(["", "mode", "saddle", "outlier"], shape[0]).tolist()
        formats = rng.integers(0, len(CELL_FORMATS), shape)
        mixed = tmp_path / "mixed.csv"
        with open(mixed, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join([f"x{i}" for i in range(shape[1])] + ["label", "region"]) + "\n")
            for row, fmts, lab, tag in zip(points.tolist(), formats.tolist(), labels.tolist(), tags):
                cells = [CELL_FORMATS[f] % v for v, f in zip(row, fmts)]
                fh.write(",".join(cells) + f",{lab},{tag}\n")
        assert_reads_like_reference(mixed)

    @pytest.mark.parametrize("body", [
        "1_0,１２,7,mode\n",
        "-nan,+7,+3,\n",
        " 2.5 , -0 , 4 ,saddle  \n\t1e-320\t,inf,-1, \n",
        "1,2,0,a\n\n   \n3,4,1,b\n",
        "1,2,0,a\r\n3,4,1,\r\n",
        "nan,-inf,0,\t\n",
    ], ids=["underscore_and_fullwidth_digits", "signs_and_negative_nan", "padded_cells",
            "blank_lines", "crlf", "whitespace_region"])
    def test_odd_cells_read_like_the_line_reader(self, tmp_path, body):
        path = tmp_path / "odd.csv"
        path.write_bytes(("x0,x1,label,region\n" + body).encode("utf-8"))
        assert_reads_like_reference(path)
