"""Deterministic ODE samplers with a per-step guidance hook.

sample() integrates the probability-flow dynamics dx/dsigma = eps(x, sigma)
(denoiser form D = x - sigma * eps) at diffusion scale over a Schedule: the
noise levels sigma and a solver. Heun takes 2nd-order predictor/corrector
steps and a plain Euler step into sigma = 0; Euler takes explicit Euler
steps, the same map as Euler on the flow ODE x_t' = v(x_t, t) with
x_t = (1 - t) x and t = sigma / (1 + sigma). A flow-matching model reads its
flow time only inside its own predict_eps.

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
writes its input features and hidden activations into the float32 buffer
store private to the calling thread (ScoreModel._buffers, the one training
uses too), kept while the chunk's row count repeats, so a step allocates
little and no two threads write one buffer. The chunk loop still holds the interpreter lock between numpy
calls, so on the small 2-d models a second thread gains little (README,
--threads).

Once a trajectory turns non-finite it is marked failed and keeps its last
finite point; its chunk then steps only the rows left, so a failed row costs
no further model evaluations, and its trace entries read NaN after the step
it failed in. A run without failures steps every row at every step.

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
from .model import OracleModel, class_ids_per_row
from .oracle import classifier_grad
from .rng import LATENTS, SFG_START, generator


@dataclass(frozen=True)
class Schedule:
    """Decreasing noise levels sigmas from noise to data (terminal 0 allowed)
    and the solver that steps over them: "heun" or "euler"."""

    sigmas: np.ndarray
    solver: str

    def __post_init__(self):
        if self.solver not in ("heun", "euler"):
            raise ValueError(f"unknown solver {self.solver!r}")
        sigmas = np.asarray(self.sigmas, dtype=float)
        if sigmas.ndim != 1 or len(sigmas) < 2:
            raise ValueError("schedule needs at least two points")
        if not np.all(np.isfinite(sigmas)):
            raise ValueError("schedule endpoints must be finite")
        if not np.all(np.diff(sigmas) < 0):
            raise ValueError("schedule must strictly decrease")
        if sigmas[-1] < 0:
            raise ValueError("schedule levels must be >= 0 (terminal 0 allowed)")
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def n_steps(self) -> int:
        return len(self.sigmas) - 1


def sigma_schedule(n_steps: int, sigma_min: float = 0.002, sigma_max: float = 80.0,
                   rho: float = 7.0, *, solver: str = "heun") -> Schedule:
    """Power-law spacing from sigma_max down to sigma_min plus a terminal 0."""
    if not (0 < sigma_min < sigma_max):
        raise ValueError("need 0 < sigma_min < sigma_max")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    i = np.arange(n_steps) / (n_steps - 1)
    sigmas = (sigma_max ** (1 / rho) + i * (sigma_min ** (1 / rho) - sigma_max ** (1 / rho))) ** rho
    sigmas[0] = sigma_max  # pin endpoints: the power-law form can lose them to roundoff
    sigmas[-1] = sigma_min
    return Schedule(np.append(sigmas, 0.0), solver)


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
    """Dispatches a stack of guidance specs over a model table, whose entry
    `main` (default "main") is the sampled model.

    All combinations are applied to noise estimates at diffusion scale, each
    model evaluated through predict_eps(x, sigma, class_ids). A trailing
    saddle-free spec wraps the combined estimate of everything before it,
    treating a stacked system (e.g. autoguidance) as a single model.
    """

    def __init__(self, models: dict, specs, *, gmm: GmmSpec | None = None, main: str = "main"):
        specs = list(specs)
        if main not in models:
            raise ValueError(f"model table must contain {main!r}")
        gd.check_stack(specs, models)
        if gmm is None and any(s.kind == "classifier" for s in specs):
            raise ValueError("classifier guidance needs the task mixture for the Bayes oracle")
        self.models = models
        self.main = models[main]
        self.base_specs = [s for s in specs if s.kind != "sfg"]
        self.sfg_spec = specs[-1] if specs and specs[-1].kind == "sfg" else None
        self.bayes = None if gmm is None else OracleModel(gmm)  # the classifier's smoothed mixtures
        self.dim = self.main.data_dim

    # -- noise-estimate chain ------------------------------------------------

    def base_eps(self, x, sigma, cls):
        eps = self.main.predict_eps(x, sigma, cls)
        for s in self.base_specs:
            if s.kind in ("cfg", "autoguidance"):
                if s.interval is None or s.interval[0] <= sigma / (1.0 + sigma) <= s.interval[1]:
                    # cfg extrapolates from the unconditional estimate,
                    # autoguidance from the companion's at the same class
                    weak = self.models[s.companion].predict_eps(x, sigma, None if s.kind == "cfg" else cls)
                    eps = gd.extrapolate(eps, weak, s.weight)
            elif s.kind == "classifier" and s.weight != 0.0:
                grad = classifier_grad(self.bayes.smoothed(-1, sigma), x, s.classifier_class)
                eps = eps - sigma * s.weight * grad
        return eps

    # -- sampling hooks --------------------------------------------------------

    def predictor(self, x, sigma, cls, state):
        """Guided noise estimate, the updated saddle-free state, and the
        correction the corrector subtracts (None without a saddle-free spec)."""
        if self.sfg_spec is None:
            return self.base_eps(x, sigma, cls), state, None
        return gd.sfg_step(lambda z: self.base_eps(z, sigma, cls), x, sigma, state, self.sfg_spec)

    def corrector(self, x, sigma, cls, corr):
        eps = self.base_eps(x, sigma, cls)
        if corr is not None:
            eps = eps - corr
        return eps


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
                x0, heun):
    dim = provider.dim
    sigmas = schedule.sigmas
    n_steps = schedule.n_steps
    ids_all = None if class_ids is None else class_ids_per_row(class_ids, n_samples)
    if x0 is None:
        latents = initial_latents(seed, n_samples, dim, sigmas[0])
    else:
        latents = np.asarray(x0, dtype=float)  # only read: each chunk copies its rows
        if latents.shape != (n_samples, dim):
            raise ValueError(f"x0 must have shape ({n_samples}, {dim})")
    v0 = None if provider.sfg_spec is None else sfg_start_vectors(seed, n_samples, dim)

    def run_chunk(bounds):
        lo, hi = bounds
        n = hi - lo
        x = latents[lo:hi].copy()
        cls = ids_all[lo:hi] if ids_all is not None else None
        state = None if v0 is None else gd.sfg_start(v0[lo:hi], provider.sfg_spec)
        failed = np.zeros(n, dtype=bool)
        live, xl = np.arange(n), x  # the chunk rows still stepping and their states
        lams = alphas = None
        if state is not None:  # the trace, NaN in the steps after a row failed
            lams, alphas = np.full((n_steps, n), np.nan), np.full((n_steps, n), np.nan)
        for k in range(n_steps):
            if not live.size:
                break
            s_cur, s_next = sigmas[k], sigmas[k + 1]
            d_cur, state, corr = provider.predictor(xl, s_cur, cls, state)
            if state is not None:
                lams[k, live] = state.last_lambda
                alphas[k, live] = state.alpha
            dt = s_next - s_cur
            x_new = xl + dt * d_cur
            if heun and s_next > 0:
                d_prime = provider.corrector(x_new, s_next, cls, corr)
                x_new = xl + dt * 0.5 * (d_cur + d_prime)
            ok = np.isfinite(x_new).all(axis=1)
            if not ok.all():  # keep the last finite states and step only the rows left
                x[live] = xl
                failed[live[~ok]] = True
                live, x_new = live[ok], x_new[ok]
                cls = None if cls is None else cls[ok]
                if state is not None:
                    state = gd.SfgState(state.v[ok], state.alpha[ok], state.last_lambda[ok])
            xl = x_new
        x[live] = xl
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
        lam, alpha = (np.concatenate([r[i] for r in results], axis=1) for i in (2, 3))
        trace = {"lambda": lam, "gate": lam > 0, "alpha": alpha}
    return Trajectories(points, ids_all, failed, trace)


def sample(provider, schedule: Schedule, n_samples: int, seed: int, *,
           class_ids=None, chunk_size=256, threads=1, x0=None) -> Trajectories:
    """Steps x <- x + (sigma' - sigma) * eps over schedule.sigmas with the
    schedule's solver: Heun (the final step to sigma = 0 is Euler) or
    explicit Euler, with the noise estimates of a GuidedProvider."""
    return _sample_ode(provider, schedule, n_samples, seed, class_ids=class_ids,
                       chunk_size=chunk_size, threads=threads, x0=x0,
                       heun=schedule.solver == "heun")
