"""Guidance strategies as pure transformations of noise estimates.

The saddle-free step maintains a warm-started shifted power-iteration
estimate of the most positive log-density curvature via two model
evaluations (a base call plus one finite-difference probe) and, when the
curvature estimate is positive, subtracts the gated curvature direction from
the noise estimate. The probe step is h * sigma * v, so the probe difference
is u ~ sigma^2 H v and lambda estimates a sigma^2-scaled Hessian eigenvalue;
for any Gaussian-smoothed density sigma^2 H >= -I. The next v is u plus the
shift alpha * sigma * v, so each step multiplies v by sigma^2 H +
alpha * sigma * I. That matrix is positive semi-definite, which keeps the
iteration pointed at the most positive eigenvalue, only when
alpha * sigma >= 1; at mid and low sigma the most negative eigenvalue can
win instead. Whether a shift of alpha tracks better is open (ROADMAP.md,
open item 2).

Classifier-free guidance and autoguidance share one update, extrapolate.
Classifier guidance, which needs the exact Bayes classifier, is applied by
the sampler's GuidedProvider. GuidanceSpec and check_stack hold every
guidance rule, for configs and library callers alike.

Identity weights short-circuit (extrapolation at w = 1, the saddle-free and
classifier updates at w = 0), so a stack at identity weights samples bitwise
like the unguided stack of its GuidedProvider.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

GUIDANCE_KINDS = ("none", "classifier", "cfg", "autoguidance", "sfg")


@dataclass(frozen=True)
class SfgState:
    """Carry of a batch of B trajectories for the saddle-free step: v the
    unit perturbation vectors (B, n), alpha the non-decreasing shifts and
    last_lambda the latest top-eigenvalue estimates, (B,) each.
    The step's settings (weight, h, alpha0) live in the run's GuidanceSpec.
    """

    v: np.ndarray
    alpha: np.ndarray
    last_lambda: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"perturbation vectors must be a batch (B, n), got shape {v.shape}")
        if np.any(np.abs(np.linalg.norm(v, axis=-1) - 1.0) > 1e-9):
            raise ValueError("perturbation vector must be unit norm within 1e-9")
        object.__setattr__(self, "v", v)


def sfg_start(v, spec: GuidanceSpec) -> SfgState:
    """Fresh carry at the unit start vectors v (B, n), with alpha =
    spec.alpha0 and last_lambda = 0 per row."""
    rows = np.shape(v)[:-1]
    return SfgState(v=v, alpha=np.full(rows, float(spec.alpha0)), last_lambda=np.zeros(rows))


def sfg_step(eps_fn, x, sigma, state: SfgState, spec: GuidanceSpec):
    """One guided noise estimate plus the updated power-iteration carry.

    Exactly two eps_fn evaluations: the base estimate and one probe at
    x + h * sigma * v, with h and the weight taken from spec. Returns
    (eps_hat, state', correction) without mutating state; correction is the
    base estimate minus eps_hat (w * u up to rounding where the gate is
    open, +0.0 where it is closed), which a Heun corrector subtracts from
    its own base estimate. x is a batch (B, n) at one noise level sigma,
    eps_fn maps such a batch to its noise estimates, and state carries B rows.
    """
    x = np.asarray(x, dtype=float)
    v = state.v
    if v.shape != x.shape:
        raise ValueError(f"state.v shape {v.shape} does not match x shape {x.shape}")
    eps_hat = np.asarray(eps_fn(x), dtype=float)
    probe = np.asarray(eps_fn(x + spec.h * sigma * v), dtype=float)
    u = (eps_hat - probe) / spec.h
    lam = np.sum(u * v, axis=-1)
    alpha = np.maximum(np.asarray(state.alpha, dtype=float), -lam)
    gate = lam > 0  # Heaviside with H(0) = 0: zero curvature is no saddle evidence
    eps_out = eps_hat
    if spec.weight > 0 and np.any(gate):
        eps_out = np.where(gate[..., None], eps_hat - spec.weight * u, eps_hat)
    u_shifted = u + (alpha * sigma)[..., None] * v
    norms = np.linalg.norm(u_shifted, axis=-1)[..., None]
    degenerate = norms == 0.0
    if np.any(degenerate):
        warnings.warn("saddle-free step degenerate (||u|| = 0 after shift); "
                      "keeping previous perturbation vector", RuntimeWarning)
        eps_out = np.where(degenerate, eps_hat, eps_out)
    v_new = np.where(degenerate, v, u_shifted / np.where(degenerate, 1.0, norms))
    return eps_out, SfgState(v=v_new, alpha=alpha, last_lambda=lam), eps_hat - eps_out


def extrapolate(good, weak, w: float):
    """good + (w - 1)(good - weak): classifier-free guidance with the
    unconditional estimate as weak, autoguidance with a degraded model's.
    w = 1 returns good as is. Otherwise the result is built in place in one
    new array, each operation with the operands of that expression, so the
    bytes match it."""
    good = np.asarray(good, dtype=float)
    weak = np.asarray(weak, dtype=float)
    if good.shape != weak.shape:
        raise ValueError(f"estimate shapes differ: {good.shape} vs {weak.shape}")
    if w == 1.0:
        return good
    out = np.subtract(good, weak)
    out *= w - 1.0
    out += good
    return out


# the kinds that read each optional field, and the field each kind requires
FIELD_KINDS = {"interval": ("cfg",), "companion": ("cfg", "autoguidance"),
               "classifier_class": ("classifier",), "alpha0": ("sfg",), "h": ("sfg",)}
REQUIRED = {"cfg": "companion", "autoguidance": "companion", "classifier": "classifier_class"}


@dataclass(frozen=True)
class GuidanceSpec:
    """Tagged selection of a guidance strategy.

    companion names the second model (cfg's unconditional branch or the
    autoguidance degraded model) in the run's model table. interval limits
    cfg to flow times t_lo <= t <= t_hi (interval CFG); None guides at every
    level. For sfg, weight, alpha0 (the initial shift, default 1.0) and h
    (the probe step, default 0.1) are the step's settings; SfgState holds
    only the per-trajectory carry.
    """

    kind: str
    weight: float = 1.0
    interval: tuple[float, float] | None = None
    companion: str | None = None
    classifier_class: int | None = None
    alpha0: float | None = None
    h: float | None = None

    def __post_init__(self):
        if self.kind not in GUIDANCE_KINDS:
            raise ValueError(f"unknown guidance kind {self.kind!r}")
        for name, kinds in FIELD_KINDS.items():
            if getattr(self, name) is not None and self.kind not in kinds:
                raise ValueError(f"{name} applies only to {' and '.join(kinds)}, not {self.kind}")
        if self.kind in REQUIRED and getattr(self, REQUIRED[self.kind]) is None:
            raise ValueError(f"{self.kind} requires {REQUIRED[self.kind]}")
        if self.interval is not None:
            t_lo, t_hi = self.interval
            if not t_lo < t_hi:
                raise ValueError("interval must satisfy t_lo < t_hi")
            object.__setattr__(self, "interval", (float(t_lo), float(t_hi)))
        lowest = 1.0 if self.kind in ("cfg", "autoguidance") else 0.0
        if self.kind != "none" and not lowest <= self.weight < np.inf:  # NaN fails too
            raise ValueError(f"{self.kind} weight must be finite and >= {lowest:g}")
        if self.kind == "sfg":
            object.__setattr__(self, "alpha0", 1.0 if self.alpha0 is None else self.alpha0)
            object.__setattr__(self, "h", 0.1 if self.h is None else self.h)
            if not (0 <= self.alpha0 < np.inf and 0 < self.h < np.inf):
                raise ValueError(f"sfg needs a finite alpha0 >= 0 and h > 0, not {self.alpha0} and {self.h}")


def check_stack(specs, models, *, conditional: bool, labels) -> None:
    """Rules for a whole guidance stack over a model table (any container of
    model names): at most one saddle-free spec, it comes last, every
    companion names a model in the table, cfg needs a conditional main model
    and a classifier class is one of the task mixture's labels (None: no
    mixture, so no classifier guidance)."""
    kinds = [s.kind for s in specs]
    if kinds.count("sfg") > 1:
        raise ValueError("at most one saddle-free spec per stack")
    if "sfg" in kinds and kinds[-1] != "sfg":
        raise ValueError("the saddle-free spec must come last in a stack")
    if "cfg" in kinds and not conditional:
        raise ValueError("cfg needs a conditional main model")
    for s in specs:
        if s.companion is not None and s.companion not in models:
            raise ValueError(f"missing companion {s.companion!r}; models are {sorted(models)}")
        if s.kind == "classifier" and labels is None:
            raise ValueError("classifier guidance needs the task mixture for the Bayes oracle")
        if s.kind == "classifier" and s.classifier_class not in labels:
            raise ValueError(f"classifier_class {s.classifier_class} is not a label of the task "
                             f"mixture; its labels are {sorted(set(labels))}")
