"""The three benchmark workloads: configs made from the seed, the work each
sampler call must cost, which traced layers must fire, and output bounds.

Each workload puts a different layer at the centre (see README.md):
simplex256-sfg the big dense MLP and 256-column CSV I/O, fractal2d-autoguide-sfg
many small calls through two models on the threaded chunk path,
twogauss-flow-classifier the exact oracle inside the sampling loop and eval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

COMMANDS = ("gen-data", "train", "sample", "eval", "sweep")

# Counters present on every workload (a pipeline always trains, samples,
# evaluates and writes CSVs).
ALWAYS = (
    "config.load_config", "datasets.to_csv", "datasets.from_csv", "datasets.sample",
    "model.train", "model.fwd_train", "model.bwd", "model.fwd", "model.sigmoid",
    "model.ckpt_save", "model.ckpt_load", "guidance.predictor", "guidance.base_eps",
    "sampler", "rng.generator", "evaluation.frechet", "evaluation.outlier_rate",
    "evaluation.coverage_entropy", "evaluation.sweep_to_csv",
    "cli.gen_data", "cli.train", "cli.sample", "cli.eval", "cli.sweep",
)
OPTIONAL = (
    "guidance.sfg_step", "guidance.corrector", "oracle.score", "oracle.classifier_grad",
    "oracle.smooth", "oracle.hessian", "oracle.full_spectrum",
    "evaluation.esm_by_region", "evaluation.curvature_field",
)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    sample_stack: tuple[str, ...]  # guidance kinds of the sample command
    sweep_stack: tuple[str, ...]  # guidance kinds of each sweep point
    fires: frozenset  # OPTIONAL spans that must fire; the rest must not
    eval_bounds: dict = field(default_factory=dict)  # report field -> (lo, hi)
    sweep_bounds: dict = field(default_factory=dict)  # sweep column -> (lo, hi)
    identity_weight: float = 0.0  # the sweep weight at which guidance changes nothing
    identity_frechet: float = math.inf  # Frechet bound for the sweep row at identity_weight

    def config(self, seed: int, out: str) -> dict:
        return BUILDERS[self.name](seed, out, self.threads)


def _simplex(seed, out, threads):
    return {
        "task": "simplex", "seed": seed, "out": out, "threads": threads,
        "data": {"n_train": 600, "n_test": 200,
                 "simplex": {"n_components": 16, "ambient_dim": 256, "scale": 0.2}},
        "models": {"main": {"hidden": [256, 256, 256]}},
        "train": {"batches": 30, "batch_size": 100, "warmup_batches": 5, "lr": 0.003,
                  "weight_decay": 1e-05, "objective": "dsm", "sigma_min": 0.02, "sigma_max": 10.0},
        "schedule": {"kind": "sigma", "n_steps": 8, "sigma_min": 0.002, "sigma_max": 10.0, "rho": 7.0},
        # one chunk: more than 256 samples so the 256-d Frechet covariance is full rank
        "sample": {"n_samples": 300, "chunk_size": 512},
        "guidance": [{"kind": "sfg", "weight": 2.0}],
        "eval": {"sigmas": [0.05, 0.2, 0.8, 3.2], "n_per_region": 75, "frechet_reference_n": 600},
        "sweep": {"kind": "sfg", "weights": [0.0, 4.0], "metrics": ["frechet"]},
    }


def _fractal(seed, out, threads):
    return {
        "task": "fractal", "seed": seed, "out": out, "threads": threads,
        "data": {"n_train": 20000,
                 "fractal": {"depth": 8, "branch_angle": 0.6283185307179586, "shrink_ratio": 0.75,
                             "jitter_sigma": 0.005, "n_classes": 2}},
        "models": {
            "main": {"hidden": [128, 128, 128], "conditional": True},
            "bad": {"hidden": [64, 64], "conditional": True,
                    "train": {"batches": 40, "warmup_batches": 5}},
        },
        "train": {"batches": 100, "batch_size": 200, "warmup_batches": 10, "lr": 0.001,
                  "weight_decay": 1e-05, "objective": "dsm", "sigma_min": 0.01, "sigma_max": 5.0},
        # Starting at sigma 2 keeps the barely trained models near their data: from
        # sigma 10, autoguidance extrapolated some seeds' samples a thousand units out.
        "schedule": {"kind": "sigma", "n_steps": 20, "sigma_min": 0.002, "sigma_max": 2.0, "rho": 7.0},
        # four chunks, so --threads 2 takes the thread-pool path
        "sample": {"n_samples": 256, "class_id": "random", "chunk_size": 64},
        "guidance": [{"kind": "autoguidance", "weight": 2.0, "companion": "bad"},
                     {"kind": "sfg", "weight": 2.0}],
        "eval": {"frechet_reference_n": 4000},
        "sweep": {"kind": "autoguidance", "companion": "bad", "weights": [1.0, 2.0],
                  "metrics": ["outlier_rate", "coverage_entropy", "frechet"]},
    }


def _twogauss(seed, out, threads):
    return {
        "task": "two_gaussian", "seed": seed, "out": out, "threads": threads,
        "data": {"n_train": 20000,
                 "two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
        "models": {"main": {"hidden": [64, 64]}},
        "train": {"batches": 200, "batch_size": 200, "warmup_batches": 20, "lr": 0.001,
                  "objective": "flow_matching", "sigma_min": 0.02, "sigma_max": 10.0},
        "schedule": {"kind": "flow_time", "n_steps": 40, "sigma_min": 0.002, "sigma_max": 10.0, "rho": 7.0},
        "sample": {"n_samples": 500, "chunk_size": 512},
        "guidance": [{"kind": "classifier", "weight": 2.0, "classifier_class": 0}],
        # 22 x 22 x 3 = 1452 field points (the shipped example has 21 x 21 x 3)
        "eval": {"frechet_reference_n": 4000,
                 "field": {"variances": [4.0, 2.0, 0.5], "grid_lo": -4.0, "grid_hi": 4.0, "grid_n": 22}},
        "sweep": {"kind": "classifier", "weights": [0.0, 2.0, 4.0], "metrics": ["frechet"]},
    }


BUILDERS = {
    "simplex256-sfg": _simplex,
    "fractal2d-autoguide-sfg": _fractal,
    "twogauss-flow-classifier": _twogauss,
}

# Bounds hold with margin for 18 to 40 seeds per workload at the commit that
# defined this benchmark; they are tolerances, so last-digit changes pass.
# coverage_entropy is bounded above exactly by log(number of modes or
# segments). The training budgets are far below convergence, so guided
# samples are loosely bounded; the sweep row at the identity weight checks
# the trained model itself against the exact reference, except on
# simplex256-sfg, whose 30-batch 256-d model still samples near the noise
# level (Frechet ~ 256 * sigma_max^2 = 25600).
WORKLOADS = {
    "simplex256-sfg": Workload(
        "simplex256-sfg", threads=1, sample_stack=("sfg",), sweep_stack=("sfg",),
        fires=frozenset({"guidance.sfg_step", "guidance.corrector", "oracle.score", "oracle.smooth",
                         "evaluation.esm_by_region"}),
        eval_bounds={"frechet": (0.0, 6.0e4), "outlier_rate": (0.0, 1.0),
                     "coverage_entropy": (1.5, math.log(16)), "esm": (1.0, 2.0e3),
                     "gate_on_fraction": (0.0, 1.0)},
        sweep_bounds={"frechet": (0.0, 6.0e4)},
    ),
    "fractal2d-autoguide-sfg": Workload(
        "fractal2d-autoguide-sfg", threads=2, sample_stack=("autoguidance", "sfg"),
        sweep_stack=("autoguidance",),
        fires=frozenset({"guidance.sfg_step", "guidance.corrector"}),
        eval_bounds={"frechet": (0.0, 10.0), "outlier_rate": (0.0, 1.0),
                     "coverage_entropy": (2.0, math.log(255)), "gate_on_fraction": (0.0, 1.0)},
        sweep_bounds={"frechet": (0.0, 10.0), "outlier_rate": (0.0, 1.0),
                      "coverage_entropy": (2.0, math.log(255))},
        identity_weight=1.0, identity_frechet=5.0,
    ),
    "twogauss-flow-classifier": Workload(
        "twogauss-flow-classifier", threads=1, sample_stack=("classifier",),
        sweep_stack=("classifier",),
        fires=frozenset({"oracle.score", "oracle.classifier_grad", "oracle.smooth", "oracle.hessian",
                         "oracle.full_spectrum", "evaluation.curvature_field"}),
        eval_bounds={"frechet": (0.0, 20.0), "outlier_rate": (0.0, 1.0),
                     "coverage_entropy": (0.0, math.log(2))},
        sweep_bounds={"frechet": (0.0, 20.0)},
        identity_weight=0.0, identity_frechet=0.5,
    ),
}


def guided_evals(stack, n_steps: int, heun: bool) -> int:
    """GuidedProvider.base_eps calls per chunk for one sampler run.

    Heun evaluates the predictor at every step and the corrector at every
    step but the last (the step into sigma = 0 is Euler); the saddle-free
    step adds one probe evaluation to each predictor.
    """
    predictor = (2 if "sfg" in stack else 1) * n_steps
    return predictor + (n_steps - 1 if heun else 0)


def forwards_per_eval(stack) -> int:
    """Model forwards per base_eps: main plus one per companion model."""
    return 1 + sum(kind in ("cfg", "interval_cfg", "autoguidance") for kind in stack)
