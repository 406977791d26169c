"""Quantitative harness: region-partitioned score-matching losses, outlier
and coverage metrics for manifold tasks, raw-coordinate Gaussian Frechet
distances, 2D curvature-field tables, and the CSV writer for tables."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import Fractal, GmmSpec, LabeledPointSet, sample_gmm
from .model import esm_loss
from .oracle import classifier_grad, full_spectrum, hessian, score, smooth
from .rng import derive_seed, generator


@dataclass
class EvalReport:
    """Aggregated metrics; sections are filled per task."""

    esm_rows: list = field(default_factory=list)  # {region, sigma, t, esm}
    outlier_rate: float | None = None
    coverage_entropy: float | None = None
    frechet: float | None = None
    sfg_stats: dict | None = None

    def __post_init__(self):
        for name in ("outlier_rate", "coverage_entropy", "frechet"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.outlier_rate is not None and not (0.0 <= self.outlier_rate <= 1.0):
            raise ValueError("outlier_rate must lie in [0, 1]")

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


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


def _points_of(samples) -> np.ndarray:
    if isinstance(samples, LabeledPointSet):
        return samples.points
    return np.asarray(samples, dtype=float)


def _segment_distances(points: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Distance of every point to every segment, shape (N, S)."""
    d = ends - starts  # (S, 2)
    len2 = (d * d).sum(axis=1)
    rel = points[:, None, :] - starts[None, :, :]  # (N, S, 2)
    t = np.clip((rel * d[None, :, :]).sum(axis=2) / len2[None, :], 0.0, 1.0)
    proj = starts[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - proj, axis=2)


def _manifold_distance(points: np.ndarray, manifold) -> np.ndarray:
    if isinstance(manifold, Fractal):
        return _segment_distances(points, manifold.starts, manifold.ends).min(axis=1)
    if isinstance(manifold, GmmSpec):
        diff = points[:, None, :] - manifold.means[None, :, :]
        if manifold.isotropic:
            maha2 = (diff * diff).sum(axis=2) / manifold.covariances[None, :]
        else:
            inv = np.linalg.inv(manifold.covariances)
            maha2 = np.einsum("nki,kij,nkj->nk", diff, inv, diff)
        return np.sqrt(maha2.min(axis=1))
    raise TypeError(f"unsupported manifold type {type(manifold)!r}")


def outlier_rate(samples, manifold, threshold: float) -> float:
    """Fraction of samples farther than threshold from the manifold
    (segment distance for fractals, component Mahalanobis distance for GMMs)."""
    if threshold <= 0:
        raise ValueError("threshold must be > 0")
    pts = _points_of(samples)
    if len(pts) == 0:
        raise ValueError("empty sample set")
    return float(np.mean(_manifold_distance(pts, manifold) > threshold))


def coverage_entropy(samples, modes) -> float:
    """Shannon entropy (nats) of nearest-mode assignments.

    modes is a (M, n) array of reference points, a GmmSpec (its means), or a
    Fractal (its segments). NaN when a point has no finite distance to any
    mode (a non-finite point, or distances that overflow), because its
    nearest mode is undefined.
    """
    pts = _points_of(samples)
    if isinstance(modes, GmmSpec):
        dists = np.linalg.norm(pts[:, None, :] - modes.means[None, :, :], axis=2)
    elif isinstance(modes, Fractal):
        dists = _segment_distances(pts, modes.starts, modes.ends)
    else:
        refs = np.asarray(modes, dtype=float)
        if refs.ndim != 2 or len(refs) < 1:
            raise ValueError("need at least one reference mode")
        dists = np.linalg.norm(pts[:, None, :] - refs[None, :, :], axis=2)
    if not np.isfinite(dists).any(axis=1).all():
        return float("nan")
    assign = dists.argmin(axis=1)
    counts = np.bincount(assign, minlength=dists.shape[1]).astype(float)
    p = counts / counts.sum()
    nz = p > 0
    return float(0.0 - (p[nz] * np.log(p[nz])).sum())  # one mode gives +0.0, not -0.0


def _sym_sqrt(mat: np.ndarray, tol: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -tol:
        raise ValueError(f"covariance not PSD after regularization (min eig {vals.min():g})")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def gaussian_frechet(samples_a, samples_b) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2) on raw
    coordinates, covariances regularized by +1e-8 I."""
    a = _points_of(samples_a)
    b = _points_of(samples_b)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both sample sets must be nonempty")
    if a.shape[1] != b.shape[1]:
        raise ValueError("sample sets must share dimension")
    n = a.shape[1]
    if len(a) <= n or len(b) <= n:
        raise ValueError("need more samples than dimensions for a stable covariance")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    reg = 1e-8 * np.eye(n)
    cov_a = np.cov(a, rowvar=False).reshape(n, n) + reg
    cov_b = np.cov(b, rowvar=False).reshape(n, n) + reg
    scale = max(np.abs(cov_a).max(), np.abs(cov_b).max(), 1.0)
    root_a = _sym_sqrt(cov_a, 1e-10 * scale)
    inner = root_a @ cov_b @ root_a
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    if vals.min() < -1e-10 * scale * scale:
        raise ValueError("cross term not PSD after regularization")
    tr_sqrt = np.sqrt(np.clip(vals, 0.0, None)).sum()
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * tr_sqrt)


def sweep_to_csv(rows: list[dict], path) -> None:
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

    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(cell(row.get(k)) for k in keys))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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


def curvature_field(g, points) -> list[dict]:
    """Per grid point of a 2D smoothed mixture: marginal score, Bayes-classifier
    gradients for both classes, the top Hessian eigenpair, and the gate flag."""
    if g.dim != 2:
        raise ValueError("curvature_field needs a 2D mixture")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a (G, 2) array")
    class_ids = sorted(np.unique(g.base.labels).tolist())[:2]
    vals, vecs = full_spectrum(hessian(g, pts))
    grads = {cid: classifier_grad(g, pts, cid) for cid in class_ids}
    rows = []
    for i, (p, s, lam, v) in enumerate(zip(pts, score(g, pts), vals[:, 0], vecs[:, :, 0])):
        rows.append({
            "x0": float(p[0]), "x1": float(p[1]),
            "score0": float(s[0]), "score1": float(s[1]),
            "lambda_max": float(lam),
            "evec0": float(v[0]), "evec1": float(v[1]),
            "gate": int(lam > 0),
            **{f"clf{cid}_{j}": float(grad[i, j]) for cid, grad in grads.items() for j in (0, 1)},
        })
    return rows


def make_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Square (n*n, 2) lattice over [lo, hi]^2."""
    xs = np.linspace(lo, hi, n)
    gx, gy = np.meshgrid(xs, xs)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)
