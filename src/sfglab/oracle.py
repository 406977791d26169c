"""Exact log density, score, Hessian, Bayes-classifier gradients and saddle
classification for Gaussian mixtures under Gaussian smoothing.

A mixture smoothed by N(0, sigma^2 I) is again a mixture with covariances
Sigma_i + sigma^2 I, so everything here is closed form up to floating point.
All responsibility computations go through log-sum-exp with max subtraction:
naive density sums underflow catastrophically in the 256-d simplex regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import GmmSpec

_LOG_2PI = float(np.log(2.0 * np.pi))


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
            object.__setattr__(self, "_logdet", self.base.dim * np.log(var))
            object.__setattr__(self, "_inv", None)
        else:
            cov = self.base.covariances + s2 * np.eye(self.base.dim)
            chol = np.linalg.cholesky(cov)
            logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
            object.__setattr__(self, "_var", None)
            object.__setattr__(self, "_logdet", logdet)
            object.__setattr__(self, "_inv", np.linalg.inv(cov))

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


def _log_joint(g: SmoothedGmm, x: np.ndarray) -> np.ndarray:
    """log w_i + log N(x; mu_i, Sigma_i + sigma^2 I), shape (N, k)."""
    diff = x[:, None, :] - g.base.means[None, :, :]  # (N, k, n)
    if g.isotropic:
        quad = (diff * diff).sum(axis=2) / g._var[None, :]
    else:
        quad = np.einsum("nki,kij,nkj->nk", diff, g._inv, diff)
    with np.errstate(divide="ignore"):
        logw = np.log(g.base.weights)[None, :]
    return logw - 0.5 * (g.dim * _LOG_2PI + g._logdet[None, :] + quad)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _responsibilities(lj: np.ndarray) -> np.ndarray:
    m = lj.max(axis=1, keepdims=True)
    r = np.exp(lj - m)
    return r / r.sum(axis=1, keepdims=True)


def log_density(g: SmoothedGmm, x):
    """log sum_i w_i N(x; mu_i, Sigma_i + sigma^2 I) via log-sum-exp."""
    xb, single = _as_batch(g, x)
    out = _logsumexp(_log_joint(g, xb), axis=1)
    return float(out[0]) if single else out


def _component_scores(g: SmoothedGmm, x: np.ndarray) -> np.ndarray:
    """s_i = (Sigma_i + sigma^2 I)^-1 (mu_i - x), shape (N, k, n)."""
    diff = g.base.means[None, :, :] - x[:, None, :]
    if g.isotropic:
        return diff / g._var[None, :, None]
    return np.einsum("kij,nkj->nki", g._inv, diff)


def score(g: SmoothedGmm, x):
    """Gradient of the smoothed log density: sum_i r_i(x) s_i(x)."""
    xb, single = _as_batch(g, x)
    r = _responsibilities(_log_joint(g, xb))
    out = (r[:, :, None] * _component_scores(g, xb)).sum(axis=1)
    return out[0] if single else out


def hessian(g: SmoothedGmm, x) -> np.ndarray:
    """Exact log-density Hessian, (n, n) for a point or (N, n, n) for a batch.

    With A_i the effective precision, s_i = A_i (mu_i - x) and responsibilities
    r_i, the Hessian is sum_i r_i (-A_i + s_i s_i^T) - s s^T where s is the
    mixture score: the covariance of the per-component scores minus the mean
    precision.
    """
    xb, single = _as_batch(g, x)
    r = _responsibilities(_log_joint(g, xb))  # (N, k)
    s_i = _component_scores(g, xb)  # (N, k, n)
    s = np.einsum("nk,nki->ni", r, s_i)
    h = np.einsum("nk,nki,nkj->nij", r, s_i, s_i) - s[:, :, None] * s[:, None, :]
    if g.isotropic:
        h -= (r / g._var).sum(axis=1)[:, None, None] * np.eye(g.dim)
    else:
        h -= np.einsum("nk,kij->nij", r, g._inv)
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
    xb, single = _as_batch(g, x)
    lj = _log_joint(g, xb)
    s_i = _component_scores(g, xb)
    r_all = _responsibilities(lj)
    lj_sub = np.where(mask[None, :], lj, -np.inf)
    r_sub = _responsibilities(lj_sub)
    out = ((r_sub - r_all)[:, :, None] * s_i).sum(axis=1)
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
