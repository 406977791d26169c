"""Quantitative harness: region-partitioned score-matching losses, outlier
and coverage metrics against a task mixture, the raw-coordinate Gaussian Frechet
distance to its exact moments, 2D curvature-field tables, and the CSV writer for tables.
The sample metrics take a points array (N, n); METRICS names them for eval's
report and a sweep, and applies them to a LabeledPointSet."""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .datasets import GmmSpec, sample_gmm
from .model import esm_loss
from .oracle import (SmoothedGmm, _as_batch, _by_row_blocks, _kernel, _row_blocks, classifier_grad,
                     full_spectrum, hessian, score, smooth)
from .rng import derive_seed, generator


def esm_by_region(m, region_specs: dict[str, GmmSpec], sigmas, n_per_region: int,
                  seed: int) -> list[dict]:
    """Score-matching loss per (region, sigma).

    Ground truth is the smoothed 'mode' mixture (the training density); test
    points are drawn from each region's own mixture and noised at the same
    sigma. Losses are reported against sigma and the induced flow time
    t = sigma / (1 + sigma).
    """
    if "mode" not in region_specs:
        raise ValueError("region_specs must include 'mode' (the training mixture)")
    dims = {s.dim for s in region_specs.values()}
    if len(dims) != 1:
        raise ValueError(f"region specs must share ambient dimension, got {dims}")
    rows = []
    for j, sigma in enumerate(sigmas):
        g = smooth(region_specs["mode"], float(sigma))
        for i, (region, spec) in enumerate(sorted(region_specs.items())):
            base = sample_gmm(spec, n_per_region, derive_seed(seed, j, i)).points
            noise = generator(seed, j, i, 1).standard_normal(base.shape)
            noisy = base + float(sigma) * noise
            rows.append({
                "region": region,
                "sigma": float(sigma),
                "t": float(sigma / (1.0 + sigma)),
                "esm": esm_loss(m, g, noisy, float(sigma)),
            })
    return rows


def _nearest_mahalanobis(points: np.ndarray, spec: GmmSpec) -> np.ndarray:
    """Mahalanobis distance of every point to its nearest component, shape
    (N,); NaN where some component's quadratic form is NaN. Anisotropic
    mixtures go in the oracle's row blocks, keeping each block's minima."""
    g = SmoothedGmm(spec, 0.0)  # not smooth(): eval and sweep fire no oracle span
    nearest = _by_row_blocks(g, _as_batch(g, points), lambda rows: _kernel(g, rows)[0].min(axis=1))
    return np.sqrt(nearest)


def outlier_rate(points, spec: GmmSpec, threshold: float) -> float:
    """Fraction of the points (N, n) whose Mahalanobis distance to the
    nearest component of the mixture exceeds threshold. NaN when a distance
    is NaN (a non-finite point, or a quadratic form that overflows to
    inf - inf), because that point is neither inlier nor outlier."""
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty sample set")
    dist = _nearest_mahalanobis(pts, spec)
    if np.isnan(dist).any():
        return float("nan")
    return float(np.mean(dist > threshold))


def coverage_entropy(points, modes) -> float:
    """Shannon entropy (nats) of the nearest-mode assignments of the points
    (N, n) to the reference modes (M, n); modes that coincide count as one,
    the first. NaN when a point has no finite distance to any mode (a
    non-finite point, or distances that overflow), because its nearest mode
    is undefined.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty sample set")
    refs = np.asarray(modes, dtype=float)
    if refs.ndim != 2 or len(refs) < 1:
        raise ValueError("need at least one reference mode")
    if pts.ndim != 2 or pts.shape[1] != refs.shape[1]:
        raise ValueError(f"points are {pts.shape}, modes {refs.shape}; need (N, n) and (M, n)")
    if refs.shape[1] == 2:
        # equals the norm bitwise (a two-term sum has one order), in the
        # oracle's row blocks; each block keeps its argmin and finiteness
        assign, finite = np.empty(len(pts), dtype=np.intp), np.empty(len(pts), dtype=bool)
        cols = np.ascontiguousarray(refs.T)
        for rows in _row_blocks(len(pts), 2 * len(refs)):
            dx = pts[rows, 0, None] - cols[0]
            dy = pts[rows, 1, None] - cols[1]
            dists = np.sqrt(dx * dx + dy * dy)
            finite[rows] = np.isfinite(dists).any(axis=1)
            assign[rows] = dists.argmin(axis=1)
    else:  # squared distances |p|^2 - 2 p.m + |m|^2 from one GEMM, clamped at 0
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row is caught below
            dists = pts @ refs.T
            dists *= -2.0
            dists += np.einsum("mi,mi->m", refs, refs)
            dists += np.einsum("ni,ni->n", pts, pts)[:, None]
        np.maximum(dists, 0.0, out=dists)
        finite = np.isfinite(dists).any(axis=1)
        assign = dists.argmin(axis=1)
    if not finite.all():
        return float("nan")
    counts = np.bincount(assign, minlength=len(refs)).astype(float)
    p = counts / counts.sum()
    nz = p > 0
    return float(0.0 - (p[nz] * np.log(p[nz])).sum())  # one mode gives +0.0, not -0.0


def gmm_moments(spec: GmmSpec) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of a mixture: mu = sum w_i mu_i and
    S = sum w_i (S_i + (mu_i - mu)(mu_i - mu)^T)."""
    w = spec.weights
    mu = w @ spec.means
    dev = spec.means - mu
    cov = (dev.T * w) @ dev
    if spec.isotropic:
        cov[np.diag_indices(spec.dim)] += w @ spec.covariances
    else:
        cov += np.einsum("k,kij->ij", w, spec.covariances)
    return mu, cov


def gaussian_frechet(points, spec: GmmSpec) -> float:
    """||mu_a - mu||^2 + Tr(S_a + S - 2 (S_a^1/2 S S_a^1/2)^1/2) on raw
    coordinates, from the mean and covariance (mu_a, S_a) of the points (N, n) to the
    mixture's exact moments (mu, S). With S = L L^T, the trace of the root is
    sum sqrt(eigvalsh(L^T S_a L)): L^T S_a L is similar to S_a S, and so to
    S_a^1/2 S S_a^1/2, so S_a need only be positive semi-definite: any 2 or
    more samples will do. NaN when a sample holds a non-finite value."""
    a = np.asarray(points, dtype=float)
    n = spec.dim
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected points of shape (N, {n}), got {a.shape}")
    if len(a) < 2:
        raise ValueError(f"a sample covariance needs at least 2 samples, got {len(a)}")
    cov_a = np.cov(a, rowvar=False).reshape(n, n)
    if not np.isfinite(cov_a).all():
        return float("nan")
    mu, cov = gmm_moments(spec)
    chol = np.linalg.cholesky(cov)
    inner = chol.T @ cov_a @ chol
    tr_sqrt = np.sqrt(np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.T)), 0.0, None)).sum()
    diff = a.mean(axis=0) - mu
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov) - 2.0 * tr_sqrt)


# The sample-set metrics, in eval's order: name -> metric(samples, a
# LabeledPointSet, task mixture, eval settings) -> float; a ValueError means
# the samples do not meet the metric's precondition. Each entry looks its
# function up by module name when called, so a rebinding of that name (a
# tracer's wrapper) runs.
METRICS = {
    "outlier_rate": lambda samples, spec, ecfg: outlier_rate(
        samples.points, spec, 4.0 if ecfg.get("outlier_threshold") is None else ecfg["outlier_threshold"]),
    "coverage_entropy": lambda samples, spec, ecfg: coverage_entropy(samples.points, spec.means),
    "frechet": lambda samples, spec, ecfg: gaussian_frechet(samples.points, spec),
}


def table_columns(table) -> dict:
    """A table as columns. A mapping of column name to values passes
    through; dict rows become one list per key, in first-seen order, with
    None where a row lacks the key."""
    if isinstance(table, Mapping):
        return dict(table)
    keys = dict.fromkeys(k for row in table for k in row)
    return {k: [row.get(k) for row in table] for k in keys}


def _csv_column(values) -> tuple[str, list]:
    """(printf conversion, cells) of one column: `%.9g` over the numbers of
    a numeric column, `%s` over pre-formatted cells where a column holds a
    string or None (bare, and empty)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
        return "%.9g", values.tolist()
    values = list(values)
    if not any(v is None or isinstance(v, str) for v in values):
        return "%.9g", values
    return "%s", ["" if v is None else v if isinstance(v, str) else "%.9g" % v for v in values]


def sweep_to_csv(table, path) -> None:
    """Write a table as CSV: a mapping of column name to equal-length values,
    or dict rows (columns in first-seen order, a missing key is an empty
    cell). Numbers at 9 significant digits, strings bare, None empty; each
    line is one `%`-format of a per-table template."""
    cols = table_columns(table)
    formats, cells = zip(*map(_csv_column, cols.values())) if cols else ((), ())
    if len({len(c) for c in cells}) > 1:
        raise ValueError(f"table columns differ in length: {sorted({len(c) for c in cells})}")
    line = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        # rows without a key are empty lines; an empty mapping has no rows
        fh.writelines(line % row for row in (zip(*cells) if cells else [()] * len(table)))


def sfg_stats(trace: dict) -> dict:
    """Gate-on fraction and a lambda histogram summary from a sampler trace."""
    lam = np.asarray(trace["lambda"], dtype=float).ravel()
    gate = np.asarray(trace["gate"], dtype=bool).ravel()
    qs = np.quantile(lam, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "gate_on_fraction": float(gate.mean()),
        "lambda_min": float(qs[0]),
        "lambda_q25": float(qs[1]),
        "lambda_median": float(qs[2]),
        "lambda_q75": float(qs[3]),
        "lambda_max": float(qs[4]),
        "lambda_mean": float(lam.mean()),
        "alpha_final_mean": float(np.asarray(trace["alpha"], dtype=float)[-1].mean()),
    }


def curvature_field(g, points) -> dict[str, np.ndarray]:
    """Per grid point of a 2D smoothed mixture, as columns of length G: the
    point (`x0`, `x1`), the marginal score, the top Hessian eigenpair
    (`lambda_max`, `evec0`, `evec1`), the gate flag and the Bayes-classifier
    gradient of each of the first two classes (`clf{id}_0`, `clf{id}_1`)."""
    if g.dim != 2:
        raise ValueError("curvature_field needs a 2D mixture")
    pts = np.asarray(points, dtype=float)
    class_ids = sorted(np.unique(g.base.labels).tolist())[:2]
    vals, vecs = full_spectrum(hessian(g, pts))
    s = score(g, pts)
    lam = vals[:, 0]
    cols = {"x0": pts[:, 0], "x1": pts[:, 1], "score0": s[:, 0], "score1": s[:, 1],
            "lambda_max": lam, "evec0": vecs[:, 0, 0], "evec1": vecs[:, 1, 0],
            "gate": (lam > 0).astype(int)}
    for cid in class_ids:
        grad = classifier_grad(g, pts, cid)
        cols[f"clf{cid}_0"], cols[f"clf{cid}_1"] = grad[:, 0], grad[:, 1]
    return cols


def make_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Square (n*n, 2) lattice over [lo, hi]^2."""
    xs = np.linspace(lo, hi, n)
    gx, gy = np.meshgrid(xs, xs)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)
