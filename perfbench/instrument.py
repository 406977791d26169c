"""Which sfglab functions get spans, and the layer metrics made from them.

Spans are named by module. ``install`` wraps the public entry points of each
layer (plus the MLP's private forward/backward/activation, which training
calls directly) at every binding; ``layer_metrics`` turns one pipeline's
spans into the per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from tracer import Patcher, Tracer, counted, propagating_executor, self_times, traced


S, COUNT = "s", "count"
LAYER_UNITS = {
    "import_s": S, "config.load_config_s": S, "config.load_config_warm_s": S,
    "datasets.to_csv_s": S, "datasets.to_csv_bytes": "bytes", "datasets.from_csv_s": S,
    "datasets.from_csv_bytes": "bytes", "datasets.sample_s": S,
    "model.train_self_s": S, "model.fwd_train_s": S, "model.bwd_s": S, "model.train_batches": COUNT,
    "model.fwd_s": S, "model.fwd_calls": COUNT, "model.fwd_rows": COUNT, "model.fwd_gflop": "GFLOP",
    "model.fwd_gflop_per_s": "GFLOP/s", "model.sigmoid_s": S,
    "model.ckpt_save_s": S, "model.ckpt_load_s": S, "model.ckpt_bytes": "bytes",
    "oracle.score_calls": COUNT, "oracle.score_rows": COUNT, "oracle.score_s": S,
    "oracle.log_joint_bytes": "bytes",
    "oracle.classifier_grad_calls": COUNT, "oracle.classifier_grad_rows": COUNT,
    "oracle.classifier_grad_s": S, "oracle.smooth_calls": COUNT, "oracle.smooth_distinct_sigmas": COUNT,
    "oracle.hessian_calls": COUNT, "oracle.hessian_s": S, "oracle.full_spectrum_calls": COUNT,
    "oracle.full_spectrum_s": S, "evaluation.curvature_field_points": COUNT,
    "guidance.sfg_step_calls": COUNT, "guidance.sfg_step_self_s": S, "guidance.gate_on_frac": "ratio",
    "guidance.provider_self_s": S, "guidance.evals_per_step": "count/step", "model.fwd_per_step": "count/step",
    "sampler.self_s": S, "sampler.traj_steps": COUNT, "sampler.chunks": COUNT,
    "sampler.traj_failed_frac": "ratio", "rng.generator_calls": COUNT, "sample.cpu_per_wall": "ratio",
    "evaluation.esm_by_region_s": S, "evaluation.frechet_s": S, "evaluation.outlier_rate_s": S,
    "evaluation.coverage_entropy_s": S, "evaluation.curvature_field_s": S, "evaluation.sweep_to_csv_s": S,
    "cli.self_s": S, "trace.overhead_s": S,
}


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim == 1 else int(x.shape[0])


def _file_bytes(path_arg):
    def after(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[path_arg])
    return after


def _forward_name(args, kwargs):
    want_cache = args[2] if len(args) > 2 else kwargs.get("want_cache", False)
    return "model.fwd_train" if want_cache else "model.fwd"


def _forward_shape(span, args, kwargs, result):
    model, feats = args[0], args[1]
    rows = int(feats.shape[0])
    span.attrs["rows"] = rows
    span.attrs["gflop"] = sum(2.0 * rows * w.shape[0] * w.shape[1] for w in model.weights) / 1e9


def _score_shape(span, args, kwargs, result):
    g, x = args[0], args[1]
    k, n = g.base.means.shape
    span.attrs["rows"] = _rows(x)
    span.attrs["log_joint_bytes"] = _rows(x) * k * n * 8  # the (N, k, n) difference array


def _rows_of_x(span, args, kwargs, result):
    span.attrs["rows"] = _rows(args[1])


def _sigma_of(span, args, kwargs, result):
    span.attrs["sigma"] = float(args[1])


def _grid_points(span, args, kwargs, result):
    span.attrs["points"] = len(args[1])


def _sampler_shape(span, args, kwargs, result):
    provider, schedule, n_samples = args[0], args[1], args[2]
    chunk = kwargs["chunk_size"]
    span.attrs.update(n_samples=n_samples, n_steps=schedule.n_steps, heun=kwargs["heun"],
                      chunks=-(-n_samples // chunk))


def install(tracer: Tracer) -> Patcher:
    """Wrap every traced layer of sfglab; restore with ``Patcher.restore``."""
    from sfglab import cli, config, datasets, evaluation, guidance, model, oracle, rng, sampler

    p = Patcher("sfglab")

    def fn(f, name, after=None):
        p.patch_function(f, traced(tracer, f, name, after))

    def method(cls, attr, name, after=None):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            p.patch_attr(cls, attr, classmethod(traced(tracer, raw.__func__, name, after)))
        else:
            p.patch_attr(cls, attr, traced(tracer, raw, name, after))

    for cmd in ("gen_data", "train", "sample", "eval", "sweep"):
        fn(getattr(cli, f"cmd_{cmd}"), f"cli.{cmd}")
    fn(config.load_config, "config.load_config")

    method(datasets.LabeledPointSet, "to_csv", "datasets.to_csv", _file_bytes(1))
    method(datasets.LabeledPointSet, "from_csv", "datasets.from_csv", _file_bytes(1))
    fn(datasets.sample_gmm, "datasets.sample")
    method(datasets.Fractal, "sample", "datasets.sample")

    fn(model.train, "model.train")
    method(model.ScoreModel, "_forward", _forward_name, _forward_shape)
    method(model.ScoreModel, "_backward", "model.bwd")
    fn(model._sigmoid, "model.sigmoid")
    fn(model.save_checkpoint, "model.ckpt_save", _file_bytes(1))
    fn(model.load_checkpoint, "model.ckpt_load", _file_bytes(0))

    fn(oracle.score, "oracle.score", _score_shape)
    fn(oracle.classifier_grad, "oracle.classifier_grad", _rows_of_x)
    fn(oracle.smooth, "oracle.smooth", _sigma_of)
    fn(oracle.hessian, "oracle.hessian")
    fn(oracle.full_spectrum, "oracle.full_spectrum")

    fn(guidance.sfg_step, "guidance.sfg_step")
    for attr in ("predictor", "corrector", "base_eps"):
        method(sampler.GuidedProvider, attr, f"guidance.{attr}")

    fn(sampler._sample_ode, "sampler", _sampler_shape)
    p.patch_attr(sampler, "ThreadPoolExecutor", propagating_executor(sampler.ThreadPoolExecutor))

    fn(evaluation.esm_by_region, "evaluation.esm_by_region")
    fn(evaluation.gaussian_frechet, "evaluation.frechet")
    fn(evaluation.outlier_rate, "evaluation.outlier_rate")
    fn(evaluation.coverage_entropy, "evaluation.coverage_entropy")
    fn(evaluation.curvature_field, "evaluation.curvature_field", _grid_points)
    fn(evaluation.sweep_to_csv, "evaluation.sweep_to_csv")

    p.patch_function(rng.generator, counted(tracer, rng.generator, "rng.generator"))
    return p


def _ancestor(span, prefix):
    sp = span.parent
    while sp is not None and not sp.name.startswith(prefix):
        sp = sp.parent
    return sp


def span_counts(tracer: Tracer) -> dict[str, int]:
    """Calls per span name, plus the plain counters."""
    out = defaultdict(int)
    for sp in tracer.spans:
        out[sp.name] += 1
    out.update(tracer.counts)
    return dict(out)


def sampler_runs(tracer: Tracer) -> list[dict]:
    """Per sampler call: its command, shape, guided evals, model forwards and
    the threads its provider calls ran on."""
    runs = {}
    for sp in tracer.spans:
        if sp.name == "sampler":
            cmd = _ancestor(sp, "cli.")
            runs[id(sp)] = dict(sp.attrs, command=cmd.name if cmd else None,
                                evals=0, forwards=0, threads=set())
    for sp in tracer.spans:
        if sp.name in ("guidance.base_eps", "model.fwd"):
            owner = _ancestor(sp, "sampler")
            if owner is not None:
                run = runs[id(owner)]
                run["evals" if sp.name == "guidance.base_eps" else "forwards"] += 1
                run["threads"].add(sp.thread)
    return list(runs.values())


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures for one traced pipeline (gate_on_frac, import_s,
    config.load_config_s and sample.cpu_per_wall come from elsewhere)."""
    selfs = self_times(tracer.spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    sigmas = set()
    for sp in tracer.spans:
        total[sp.name] += sp.duration
        own[sp.name] += selfs[id(sp)]
        calls[sp.name] += 1
        for key, value in sp.attrs.items():
            if key == "sigma":
                sigmas.add(value)
            elif not isinstance(value, bool):
                attr[f"{sp.name}.{key}"] += value

    sample_runs = [r for r in sampler_runs(tracer) if r["command"] == "cli.sample"]
    steps = sum(r["n_steps"] * r["chunks"] for r in sample_runs)
    load_calls = calls["config.load_config"]
    m = {
        "config.load_config_warm_s": total["config.load_config"] / load_calls if load_calls else 0.0,
        "datasets.to_csv_s": total["datasets.to_csv"],
        "datasets.to_csv_bytes": attr["datasets.to_csv.bytes"],
        "datasets.from_csv_s": total["datasets.from_csv"],
        "datasets.from_csv_bytes": attr["datasets.from_csv.bytes"],
        "datasets.sample_s": total["datasets.sample"],
        "model.train_self_s": own["model.train"],
        "model.fwd_train_s": total["model.fwd_train"],
        "model.bwd_s": total["model.bwd"],
        "model.train_batches": calls["model.fwd_train"],
        "model.fwd_s": total["model.fwd"],
        "model.fwd_calls": calls["model.fwd"],
        "model.fwd_rows": attr["model.fwd.rows"],
        "model.fwd_gflop": attr["model.fwd.gflop"],
        "model.fwd_gflop_per_s": attr["model.fwd.gflop"] / total["model.fwd"] if total["model.fwd"] else 0.0,
        "model.sigmoid_s": total["model.sigmoid"],
        "model.ckpt_save_s": total["model.ckpt_save"],
        "model.ckpt_load_s": total["model.ckpt_load"],
        "model.ckpt_bytes": attr["model.ckpt_save.bytes"],
        "oracle.score_calls": calls["oracle.score"],
        "oracle.score_rows": attr["oracle.score.rows"],
        "oracle.score_s": total["oracle.score"],
        "oracle.log_joint_bytes": attr["oracle.score.log_joint_bytes"],
        "oracle.classifier_grad_calls": calls["oracle.classifier_grad"],
        "oracle.classifier_grad_rows": attr["oracle.classifier_grad.rows"],
        "oracle.classifier_grad_s": total["oracle.classifier_grad"],
        "oracle.smooth_calls": calls["oracle.smooth"],
        "oracle.smooth_distinct_sigmas": len(sigmas),
        "oracle.hessian_calls": calls["oracle.hessian"],
        "oracle.hessian_s": total["oracle.hessian"],
        "oracle.full_spectrum_calls": calls["oracle.full_spectrum"],
        "oracle.full_spectrum_s": total["oracle.full_spectrum"],
        "evaluation.curvature_field_points": attr["evaluation.curvature_field.points"],
        "guidance.sfg_step_calls": calls["guidance.sfg_step"],
        "guidance.sfg_step_self_s": own["guidance.sfg_step"],
        "guidance.provider_self_s": sum(own[f"guidance.{a}"] for a in ("predictor", "corrector", "base_eps")),
        "guidance.evals_per_step": sum(r["evals"] for r in sample_runs) / steps if steps else 0.0,
        "model.fwd_per_step": sum(r["forwards"] for r in sample_runs) / steps if steps else 0.0,
        "sampler.self_s": own["sampler"],
        "sampler.traj_steps": sum(sp.attrs["n_samples"] * sp.attrs["n_steps"]
                                  for sp in tracer.spans if sp.name == "sampler"),
        "sampler.chunks": attr["sampler.chunks"],
        "rng.generator_calls": tracer.counts["rng.generator"],
        "evaluation.esm_by_region_s": total["evaluation.esm_by_region"],
        "evaluation.frechet_s": total["evaluation.frechet"],
        "evaluation.outlier_rate_s": total["evaluation.outlier_rate"],
        "evaluation.coverage_entropy_s": total["evaluation.coverage_entropy"],
        "evaluation.curvature_field_s": total["evaluation.curvature_field"],
        "evaluation.sweep_to_csv_s": total["evaluation.sweep_to_csv"],
        "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
    }
    return m
