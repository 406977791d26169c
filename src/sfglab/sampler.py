"""Deterministic ODE samplers with a per-step guidance hook.

sample() follows the schedule: over a sigma schedule it integrates the
probability-flow dynamics dx/dsigma = eps(x, sigma) (denoiser form
D = x - sigma * eps) with the 2nd-order Heun predictor/corrector and a plain
Euler step into sigma = 0; over a flow-time schedule it integrates
x' = v(x, t) with explicit Euler.

All randomness of a run is drawn before the trajectories are split into
chunks, each kind as one array from its own stream of the master seed (see
rng): the start latents from initial_latents, or from x0 when runs that
share seed, sample count and schedule (the points of a sweep) draw them once,
and under saddle-free guidance the start vectors of the power iteration.
Trajectory i takes row i of each. Work is partitioned into fixed-size chunks
regardless of thread count, and nothing random is drawn inside a chunk, so
outputs are bitwise identical for any --threads value and assemble in
trajectory order.

Chunks on different threads may share a model. Each ScoreModel evaluation
writes its input features and hidden activations into buffers private to the
calling thread (ScoreModel._buffers), kept while the chunk's row count
repeats, so a step allocates little and no two threads write one buffer.
The chunk loop still holds the interpreter lock between numpy calls, so on
the small 2-d models a second thread gains little (README, --threads).

Saddle-free guidance under Heun updates its power-iteration carry once per
step at the predictor point; the corrector slope reuses the predictor's gated
guidance direction. This keeps the guidance overhead at two model
evaluations per step.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import guidance as gd
from .datasets import GmmSpec, LabeledPointSet
from .model import OracleModel, class_ids_per_row, eps_to_flow, flow_to_eps
from .oracle import classifier_grad
from .rng import LATENTS, SFG_START, generator


@dataclass(frozen=True)
class Schedule:
    """Monotone discretization: decreasing sigmas (terminal 0 appended) or
    flow times inside [0, 1)."""

    kind: str
    steps: np.ndarray

    def __post_init__(self):
        if self.kind not in ("sigma", "flow_time"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        steps = np.asarray(self.steps, dtype=float)
        if steps.ndim != 1 or len(steps) < 2:
            raise ValueError("schedule needs at least two points")
        if not np.all(np.isfinite(steps)):
            raise ValueError("schedule endpoints must be finite")
        d = np.diff(steps)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("schedule must be strictly monotone")
        if self.kind == "sigma":
            if np.any(d >= 0):
                raise ValueError("sigma schedule must decrease")
            if np.any(steps < 0) or np.any(steps[:-1] <= 0):
                raise ValueError("sigmas must be positive (terminal 0 allowed)")
        else:
            if np.any(steps < 0) or np.any(steps >= 1.0):
                raise ValueError("flow times must lie in [0, 1)")
        object.__setattr__(self, "steps", steps)

    @property
    def n_steps(self) -> int:
        return len(self.steps) - 1


def sigma_schedule(n_steps: int, sigma_min: float = 0.002, sigma_max: float = 80.0,
                   rho: float = 7.0) -> Schedule:
    """Power-law spacing from sigma_max down to sigma_min plus a terminal 0."""
    if not (0 < sigma_min < sigma_max):
        raise ValueError("need 0 < sigma_min < sigma_max")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    i = np.arange(n_steps) / (n_steps - 1)
    steps = (sigma_max ** (1 / rho) + i * (sigma_min ** (1 / rho) - sigma_max ** (1 / rho))) ** rho
    steps[0] = sigma_max  # pin endpoints: the power-law form can lose them to roundoff
    steps[-1] = sigma_min
    return Schedule("sigma", np.append(steps, 0.0))


def flow_time_schedule(n_steps: int, sigma_min: float = 0.002, sigma_max: float = 80.0,
                       rho: float = 7.0) -> Schedule:
    """Generation schedule in flow time via t = sigma / (1 + sigma); runs from
    near 1 (noise) down to the terminal 0 (data)."""
    sig = sigma_schedule(n_steps, sigma_min, sigma_max, rho).steps
    return Schedule("flow_time", sig / (1.0 + sig))


@dataclass
class Trajectories:
    """Final states of a batch of trajectories plus, under SFG, the per-step trace."""

    points: np.ndarray
    labels: np.ndarray | None
    failed: np.ndarray
    sfg_trace: dict | None = None

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())

    def to_point_set(self) -> LabeledPointSet:
        """Finite trajectories only; failed ones are excluded (count reported)."""
        ok = ~self.failed
        labels = self.labels[ok] if self.labels is not None else np.zeros(int(ok.sum()), dtype=int)
        return LabeledPointSet(self.points[ok], labels)


class GuidedProvider:
    """Dispatches a stack of guidance specs over a model table.

    All combinations are applied to noise estimates; in flow mode each model
    evaluation is converted from a velocity via eps = (1 - t) v + x first and
    the final estimate is converted back. A trailing saddle-free spec wraps
    the combined estimate of everything before it, treating a stacked
    system (e.g. autoguidance) as a single model.
    """

    def __init__(self, models: dict, specs, *, mode: str = "eps", gmm: GmmSpec | None = None):
        if mode not in ("eps", "flow"):
            raise ValueError(f"unknown provider mode {mode!r}")
        specs = list(specs)
        if "main" not in models:
            raise ValueError("model table must contain 'main'")
        gd.check_stack(specs, models)
        if gmm is None and any(s.kind == "classifier" for s in specs):
            raise ValueError("classifier guidance needs the task mixture for the Bayes oracle")
        self.models = models
        self.base_specs = [s for s in specs if s.kind != "sfg"]
        self.sfg_spec = specs[-1] if specs and specs[-1].kind == "sfg" else None
        self.mode = mode
        self.bayes = None if gmm is None else OracleModel(gmm)  # the classifier's smoothed mixtures
        self.dim = models["main"].data_dim

    # -- noise-estimate chain ------------------------------------------------

    def _model_eps(self, name: str, x, level, cls):
        m = self.models[name]
        if self.mode == "eps":
            return m.predict_eps(x, level, cls)
        v = m.predict_velocity(x, level, cls)
        return flow_to_eps(v, x, level)

    def _flow_time_of(self, level: float) -> float:
        return level if self.mode == "flow" else level / (1.0 + level)

    def _sigma_of(self, level: float) -> float:
        return level / (1.0 - level) if self.mode == "flow" else level

    def base_eps(self, x, level, cls):
        eps = self._model_eps("main", x, level, cls)
        for s in self.base_specs:
            if s.kind in ("cfg", "autoguidance"):
                if s.interval is None or s.interval[0] <= self._flow_time_of(level) <= s.interval[1]:
                    # cfg extrapolates from the unconditional estimate,
                    # autoguidance from the companion's at the same class
                    weak = self._model_eps(s.companion, x, level, None if s.kind == "cfg" else cls)
                    eps = gd.extrapolate(eps, weak, s.weight)
            elif s.kind == "classifier" and s.weight != 0.0:
                eps = eps - self._sigma_of(level) * s.weight * self._bayes_grad(x, level, s.classifier_class)
        return eps

    def _bayes_grad(self, x, level, class_id):
        if self.mode == "flow":
            x = np.asarray(x) / (1.0 - level)
        return classifier_grad(self.bayes.smoothed(-1, self._sigma_of(level)), x, class_id)

    # -- sampling hooks --------------------------------------------------------

    def predictor(self, x, level, cls, state):
        """Guided estimate in the sampler's native space, the updated
        saddle-free state, and the eps-space correction the corrector
        subtracts (None without a saddle-free spec)."""
        if self.sfg_spec is None:
            eps, corr = self.base_eps(x, level, cls), None
        else:
            # In flow coordinates the probe h * t * v matches h * sigma * v in
            # diffusion coordinates (x_t = (1 - t) x_diff with t = (1 - t) sigma),
            # so the level plays the role of sigma in either mode.
            eps, state, corr = gd.sfg_step(lambda z: self.base_eps(z, level, cls), x, level,
                                           state, self.sfg_spec)
        out = eps_to_flow(eps, x, level) if self.mode == "flow" else eps
        return out, state, corr

    def corrector(self, x, level, cls, corr):
        eps = self.base_eps(x, level, cls)
        if corr is not None:
            eps = eps - corr
        return eps


class _FieldProvider:
    """Wraps a bare callable(x, level) -> estimate as an unguided provider."""

    sfg_spec = None

    def __init__(self, fn, dim=None):
        self.fn = fn
        self.dim = dim

    def predictor(self, x, level, cls, state):
        return np.asarray(self.fn(x, level), dtype=float), state, None

    def corrector(self, x, level, cls, corr):
        return np.asarray(self.fn(x, level), dtype=float)


def _as_provider(provider, dim):
    if hasattr(provider, "predictor"):
        return provider
    return _FieldProvider(provider, dim)


def _chunk_ranges(n, chunk_size):
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


def initial_latents(seed, n_samples: int, dim: int, scale: float) -> np.ndarray:
    """The (n_samples, dim) start points sample() draws when it gets no x0:
    scale times one (n_samples, dim) standard normal draw from
    generator(seed, rng.LATENTS). Runs that share the seed, sample count and
    schedule can draw them once and pass them to each run as x0."""
    return generator(seed, LATENTS).standard_normal((n_samples, dim)) * scale


def sfg_start_vectors(seed, n_samples: int, dim: int) -> np.ndarray:
    """The (n_samples, dim) saddle-free start vectors of a run: one standard
    normal draw from generator(seed, rng.SFG_START), each row scaled to unit
    norm, so every row is uniform on the unit sphere."""
    v = generator(seed, SFG_START).standard_normal((n_samples, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v


def _sample_ode(provider, schedule, n_samples, seed, *, class_ids, chunk_size, threads,
                x0, dim, heun):
    provider = _as_provider(provider, dim)
    if provider.dim is None:
        raise ValueError("pass dim= when sampling from a bare callable")
    wanted = "eps" if schedule.kind == "sigma" else "flow"
    if getattr(provider, "mode", wanted) != wanted:
        raise ValueError(f"provider mode {provider.mode!r} does not fit a {schedule.kind} schedule")
    dim = provider.dim
    steps = schedule.steps
    n_steps = schedule.n_steps
    ids_all = None if class_ids is None else class_ids_per_row(class_ids, n_samples)
    if x0 is None:
        latents = initial_latents(seed, n_samples, dim, steps[0])
    else:
        latents = np.asarray(x0, dtype=float)  # only read: each chunk copies its rows
        if latents.shape != (n_samples, dim):
            raise ValueError(f"x0 must have shape ({n_samples}, {dim})")
    v0 = None if provider.sfg_spec is None else sfg_start_vectors(seed, n_samples, dim)

    def run_chunk(bounds):
        lo, hi = bounds
        x = latents[lo:hi].copy()
        cls = ids_all[lo:hi] if ids_all is not None else None
        state = None if v0 is None else gd.sfg_start(v0[lo:hi], provider.sfg_spec)
        failed = np.zeros(hi - lo, dtype=bool)
        lams, alphas = [], []
        for k in range(n_steps):
            s_cur, s_next = steps[k], steps[k + 1]
            d_cur, state, corr = provider.predictor(x, s_cur, cls, state)
            if state is not None:
                lams.append(state.last_lambda)
                alphas.append(state.alpha)
            dt = s_next - s_cur
            x_new = x + dt * d_cur
            if heun and s_next > 0:
                d_prime = provider.corrector(x_new, s_next, cls, corr)
                x_new = x + dt * 0.5 * (d_cur + d_prime)
            failed |= ~np.isfinite(x_new).all(axis=1)
            x = np.where(failed[:, None], x, x_new)
        return x, failed, lams, alphas

    bounds = _chunk_ranges(n_samples, chunk_size)
    if threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_chunk, bounds))
    else:
        results = [run_chunk(b) for b in bounds]

    points = np.concatenate([r[0] for r in results])
    failed = np.concatenate([r[1] for r in results])
    trace = None
    if v0 is not None:  # (n_steps, n_samples): each chunk's per-step record side by side
        lam, alpha = (np.concatenate([np.stack(r[i]) for r in results], axis=1) for i in (2, 3))
        trace = {"lambda": lam, "gate": lam > 0, "alpha": alpha}
    return Trajectories(points, ids_all, failed, trace)


def sample(provider, schedule: Schedule, n_samples: int, seed: int, *,
           class_ids=None, chunk_size=256, threads=1, x0=None, dim=None) -> Trajectories:
    """Heun over a sigma schedule (the final step to sigma = 0 is Euler),
    explicit Euler x <- x + dt * v over a flow-time schedule."""
    return _sample_ode(provider, schedule, n_samples, seed, class_ids=class_ids,
                       chunk_size=chunk_size, threads=threads, x0=x0, dim=dim,
                       heun=schedule.kind == "sigma")
