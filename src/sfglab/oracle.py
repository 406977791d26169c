"""Exact log density, score, Hessian, Bayes-classifier gradients and saddle
classification for Gaussian mixtures under Gaussian smoothing.

A mixture smoothed by N(0, sigma^2 I) is again a mixture with covariances
Sigma_i + sigma^2 I, so everything here is closed form up to floating point.
All responsibility computations go through log-sum-exp with max subtraction:
naive density sums underflow catastrophically in the 256-d simplex regime.

One kernel, `_kernel`, gives every per-component quantity: the quadratic
forms (the log joint's, and the nearest-component distances of
`evaluation.outlier_rate` at sigma 0) and, for the Hessian and anisotropic
mixtures, the component scores. Isotropic mixtures (simplex, two-Gaussian)
take their quadratic forms from one GEMM, x @ means.T, and `score` and
`classifier_grad` their weighted score sums from a second one, so no
(N, k, n) array is formed; 2-d anisotropic mixtures (the fractal) use an
elementwise closed form over (N, k); other dimensions an einsum.

Anisotropic mixtures are evaluated in row blocks (`_by_row_blocks`, also
used by `evaluation`'s nearest-component metrics): a block holds
max(1, BLOCK_CELLS // (k n)) rows, so its largest temporary, the k n
component scores of each row, stays at or below 64 KB. The budget is set by
cache and by glibc's malloc, which serves requests of 128 KB and more with
fresh mmap pages (its default threshold): each (N, k) float64 temporary of
a 256-row sampler chunk on the 256-component fractal is 512 KB, so every
call mapped, faulted in and unmapped several of them. A 64 KB block stays
in cache and comes from the heap. Every row goes through the same
operations in a block as in one whole-array call, so blocks change no bits.
The isotropic GEMM path stays whole: its matrix products would round
differently in row blocks, and its (N, k) arrays are small next to the
(N, n) inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import GmmSpec

_LOG_2PI = float(np.log(2.0 * np.pi))
BLOCK_CELLS = 8192  # float64 values in the largest temporary of one row block (64 KB)


@dataclass(frozen=True)
class SmoothedGmm:
    """A GmmSpec convolved with an isotropic Gaussian of scale sigma."""

    base: GmmSpec
    sigma: float

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be finite and >= 0")
        s2 = self.sigma * self.sigma
        if self.base.isotropic:
            var = self.base.covariances + s2
            object.__setattr__(self, "_var", var)
            object.__setattr__(self, "_sqnorm", np.einsum("ki,ki->k", self.base.means, self.base.means))
            object.__setattr__(self, "_logdet", self.base.dim * np.log(var))
            object.__setattr__(self, "_inv", None)
        else:
            cov = self.base.covariances + s2 * np.eye(self.base.dim)
            chol = np.linalg.cholesky(cov)
            logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
            inv = np.linalg.inv(cov)
            object.__setattr__(self, "_var", None)
            object.__setattr__(self, "_logdet", logdet)
            object.__setattr__(self, "_inv", inv)
            if self.base.dim == 2:  # contiguous (k,) rows for the 2-d closed form
                object.__setattr__(self, "_mean_cols", np.ascontiguousarray(self.base.means.T))
                object.__setattr__(self, "_prec_rows", np.ascontiguousarray(inv.reshape(-1, 4).T))
        with np.errstate(divide="ignore"):
            object.__setattr__(self, "_logw", np.log(self.base.weights))
        object.__setattr__(self, "_lognorm", self.base.dim * _LOG_2PI + self._logdet)

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def isotropic(self) -> bool:
        return self.base.isotropic

    def effective_covariances(self) -> np.ndarray:
        if self.isotropic:
            return self._var.copy()
        return self.base.covariances + self.sigma**2 * np.eye(self.dim)


def smooth(spec: GmmSpec, sigma: float) -> SmoothedGmm:
    return SmoothedGmm(spec, float(sigma))


def _as_batch(g: SmoothedGmm, x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != g.dim:
        raise ValueError(f"point dimension {x.shape[-1]} != mixture dimension {g.dim}")
    return x, single


def _row_blocks(n_rows: int, cells_per_row: int):
    """Slices of max(1, BLOCK_CELLS // cells_per_row) rows that cover n_rows."""
    step = max(1, BLOCK_CELLS // cells_per_row)
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _by_row_blocks(g: SmoothedGmm, x: np.ndarray, fn, tail: tuple = ()) -> np.ndarray:
    """fn(x), an (N,) + tail array of per-row values. Isotropic mixtures call
    fn once; anisotropic ones call it on row blocks of (n, rows, k) cells at
    most BLOCK_CELLS, into one preallocated output."""
    if g.isotropic:
        return fn(x)
    out = np.empty((len(x),) + tail)
    for rows in _row_blocks(len(x), g.base.n_components * g.dim):
        out[rows] = fn(x[rows])
    return out


def _kernel(g: SmoothedGmm, x: np.ndarray, scores: bool = False):
    """Per-component quadratic forms q_i = (x - mu_i)^T A_i (x - mu_i), shape
    (N, k), with A_i the effective precision; with scores=True also the
    component scores s_i = A_i (mu_i - x), shape (N, k, n), else None.

    Isotropic: q_i = (|mu_i|^2 - 2 x.mu_i) / v_i + |x|^2 / v_i from one GEMM,
    clamped at 0 (a point on a mean can round below it; NaN passes). 2-d: with
    (u, v) = mu_i - x and A_i = [[a, b], [b', c]], s_i = (a u + b v, b' u + c v)
    and q_i = u s_i0 + v s_i1, elementwise over (N, k); the quadratic form
    alone uses the two score rows as scratch. Other dimensions: einsum.
    """
    if g.isotropic:
        quad = x @ g.base.means.T
        quad *= -2.0
        quad += g._sqnorm
        quad /= g._var
        quad += np.einsum("ni,ni->n", x, x)[:, None] / g._var
        np.maximum(quad, 0.0, out=quad)
        if not scores:
            return quad, None
        s = np.subtract(g.base.means[None, :, :], x[:, None, :])
        return quad, np.divide(s, g._var[None, :, None], out=s)
    if g.dim == 2:
        p00, p01, p10, p11 = g._prec_rows
        u = g._mean_cols[0] - x[:, 0, None]
        v = g._mean_cols[1] - x[:, 1, None]
        # component-major, so the callers' sums over components run along contiguous rows
        s = np.empty((2,) + u.shape)
        t = np.empty_like(u) if scores else s[1]  # the quadratic form alone keeps no score row
        # points far enough out overflow (inf - inf = nan) silently, as the einsum does
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(p00, u, out=s[0])
            s[0] += np.multiply(p01, v, out=t)
            np.multiply(p10, u, out=s[1])
            u *= s[0]
            s[1] += np.multiply(p11, v, out=t if scores else s[0])
            v *= s[1]
            quad = np.add(u, v, out=u)
        return quad, s.transpose(1, 2, 0) if scores else None
    diff = x[:, None, :] - g.base.means[None, :, :]  # (N, k, n)
    quad = np.einsum("nki,kij,nkj->nk", diff, g._inv, diff)
    if not scores:
        return quad, None
    to_mean = np.subtract(g.base.means[None, :, :], x[:, None, :], out=diff)
    return quad, np.einsum("kij,nkj->nki", g._inv, to_mean)


def _log_joint(g: SmoothedGmm, x: np.ndarray, scores: bool = False):
    """log w_i + log N(x; mu_i, Sigma_i + sigma^2 I), shape (N, k), and the
    component scores of _kernel (None unless scores=True)."""
    quad, s = _kernel(g, x, scores)
    # in place, with the operands of logw - 0.5 * (n log 2 pi + logdet + quad)
    quad += g._lognorm
    quad *= 0.5
    return np.subtract(g._logw, quad, out=quad), s


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _responsibilities(lj: np.ndarray) -> np.ndarray:
    r = lj - lj.max(axis=1, keepdims=True)
    np.exp(r, out=r)
    r /= r.sum(axis=1, keepdims=True)
    return r


def _score_sum(g: SmoothedGmm, x: np.ndarray, w: np.ndarray, s_i) -> np.ndarray:
    """sum_i w_i s_i(x), shape (N, n), for weights w (N, k), which it overwrites.
    Isotropic (s_i None): one GEMM, (w / v) @ mu - x sum_i w_i / v_i. Otherwise
    from the component scores s_i of _kernel, which it also overwrites."""
    if s_i is None:
        w /= g._var
        out = w @ g.base.means
        out -= x * w.sum(axis=1)[:, None]
        return out
    s_i *= w[:, :, None]
    return s_i.sum(axis=1)


def log_density(g: SmoothedGmm, x):
    """log sum_i w_i N(x; mu_i, Sigma_i + sigma^2 I) via log-sum-exp."""
    xb, single = _as_batch(g, x)
    out = _by_row_blocks(g, xb, lambda rows: _logsumexp(_log_joint(g, rows)[0], axis=1))
    return float(out[0]) if single else out


def score(g: SmoothedGmm, x):
    """Gradient of the smoothed log density: sum_i r_i(x) s_i(x)."""
    def rows_score(rows):
        lj, s_i = _log_joint(g, rows, scores=not g.isotropic)
        return _score_sum(g, rows, _responsibilities(lj), s_i)

    xb, single = _as_batch(g, x)
    out = _by_row_blocks(g, xb, rows_score, (g.dim,))
    return out[0] if single else out


def hessian(g: SmoothedGmm, x) -> np.ndarray:
    """Exact log-density Hessian, (n, n) for a point or (N, n, n) for a batch.

    With A_i the effective precision, s_i = A_i (mu_i - x) and responsibilities
    r_i, the Hessian is sum_i r_i (-A_i + s_i s_i^T) - s s^T where s is the
    mixture score: the covariance of the per-component scores minus the mean
    precision.
    """
    def rows_hessian(rows):
        lj, s_i = _log_joint(g, rows, scores=True)  # (N, k), (N, k, n)
        r = _responsibilities(lj)
        s = np.einsum("nk,nki->ni", r, s_i)
        h = np.einsum("nk,nki,nkj->nij", r, s_i, s_i) - s[:, :, None] * s[:, None, :]
        if g.isotropic:
            h -= (r / g._var).sum(axis=1)[:, None, None] * np.eye(g.dim)
        else:
            h -= np.einsum("nk,kij->nij", r, g._inv)
        return h

    xb, single = _as_batch(g, x)
    h = _by_row_blocks(g, xb, rows_hessian, (g.dim, g.dim))
    return h[0] if single else h


def full_spectrum(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix (n, n) or of each matrix of a stack
    (N, n, n), descending by eigenvalue (LAPACK): values (n,)/(N, n) and unit
    eigenvectors as columns (n, n)/(N, n, n), so the top pair is vals[..., 0]
    with vecs[..., :, 0]."""
    h = np.asarray(h, dtype=float)
    if h.ndim not in (2, 3) or h.shape[-1] != h.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them")
    ht = np.swapaxes(h, -1, -2)
    asym = np.abs(h - ht).max(axis=(-2, -1), initial=0.0)
    bad = asym > 1e-9 * (1.0 + np.abs(h).max(axis=(-2, -1), initial=0.0))
    if bad.any():
        raise ValueError(f"matrix asymmetric by {asym[bad].max():g}")
    vals, vecs = np.linalg.eigh(0.5 * (h + ht))
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    if (np.abs(np.linalg.norm(vecs, axis=-2) - 1.0) > 1e-9).any():
        raise ValueError("an eigenvector norm deviates from 1 by > 1e-9")
    return vals, vecs


def classifier_grad(g: SmoothedGmm, x, class_id: int):
    """Gradient of the exact Bayes log posterior log p(y = class_id | x).

    Equals the score of the class sub-mixture minus the marginal score.
    """
    labels = g.base.labels
    mask = labels == class_id
    if not mask.any():
        raise ValueError(f"unknown class id {class_id}; labels are {np.unique(labels)}")

    def rows_grad(rows):
        lj, s_i = _log_joint(g, rows, scores=not g.isotropic)
        r_sub = _responsibilities(np.where(mask[None, :], lj, -np.inf))
        r_sub -= _responsibilities(lj)
        return _score_sum(g, rows, r_sub, s_i)

    xb, single = _as_batch(g, x)
    out = _by_row_blocks(g, xb, rows_grad, (g.dim,))
    return out[0] if single else out


def classify_region(g: SmoothedGmm, x, grad_tol: float | None = None) -> str | np.ndarray:
    """'saddle_region' iff the top Hessian eigenvalue is positive; 'mode' iff
    the score is (near) zero and the top eigenvalue negative; else 'other'.
    One label for a point (n,), an array of N labels for a batch (N, n)."""
    if grad_tol is None:
        grad_tol = 1e-6 * np.sqrt(g.dim)  # scale-aware zero test for the mode check
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")
    xb, single = _as_batch(g, x)
    lam_max = full_spectrum(hessian(g, xb))[0][:, 0]
    stationary = np.linalg.norm(score(g, xb), axis=1) < grad_tol
    labels = np.where(lam_max > 0, "saddle_region", np.where(stationary & (lam_max < 0), "mode", "other"))
    return str(labels[0]) if single else labels
