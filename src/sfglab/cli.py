"""Command-line orchestration: gen-data, train, sample, eval, sweep, plot.

Every command is driven by a JSON config (see config.SCHEMA), is idempotent
given identical config + seed (byte-identical outputs, manifests embed the
config hash), and honors the global flags --config/--seed/--out/--threads.
Environment overrides use the SFGLAB_ prefix (SFGLAB_SEED, SFGLAB_OUT,
SFGLAB_THREADS) and sit between the config file and the CLI flags.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 missing or unreadable artifact.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, evaluation, svg
from .config import (ConfigError, MissingArtifact, NumericFailure, config_hash, guidance_stack,
                     load_config, schedule, sweep_points, task_specs, train_config)
from .datasets import LabeledPointSet, read_csv, sample_gmm
from .model import TrainingDiverged, load_checkpoint, save_checkpoint, train
from .oracle import smooth
from .rng import derive_seed, generator
from .sampler import GuidedProvider, sample


# ---------------------------------------------------------------------------
# task plumbing

def _ensure_out(cfg: dict) -> Path:
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".writable"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _write_manifest(path: Path, command: str, cfg: dict, extra: dict | None = None) -> None:
    # threads is execution machinery, not run identity: outputs must be
    # byte-identical for any thread count, manifests included
    identity = {k: v for k, v in cfg.items() if k != "threads"}
    doc = {"command": command, "version": __version__, "seed": cfg["seed"],
           "config_hash": config_hash(identity), "config": identity}
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sample_tag(cfg: dict) -> str:
    """Names the sample files: sample.tag, else the guidance kinds joined by '+'."""
    return cfg["sample"].get("tag") or "+".join(d["kind"] for d in cfg["guidance"]) or "none"


def _read_points(path) -> LabeledPointSet:
    try:
        return LabeledPointSet.from_csv(path)
    except ValueError as exc:
        raise MissingArtifact(f"unreadable point set: {exc}") from exc


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _read_table(path, columns) -> list[dict]:
    """Rows of a CSV table to plot, each cell a float where it parses. Every
    name in columns(header) must be a column whose cells all parse; a
    malformed table is a MissingArtifact naming the file."""
    records = read_csv(path)
    header = next(records)
    need = columns(header)
    missing = [k for k in need if k not in header]
    if missing:
        raise MissingArtifact(f"unreadable table: {path}: no column {missing[0]!r}")
    rows = []
    try:
        for lineno, fields in records:
            row = {k: _number_or_text(v) for k, v in zip(header, fields)}
            text = [k for k in need if isinstance(row[k], str)]
            if text:
                raise ValueError(f"{path}: line {lineno}: {text[0]} {row[text[0]]!r} is not a number")
            rows.append(row)
    except ValueError as exc:
        raise MissingArtifact(f"unreadable table: {exc}") from exc
    return rows


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(cfg: dict) -> int:
    out = _ensure_out(cfg)
    specs = task_specs(cfg)
    seed = cfg["seed"]
    n_train = cfg["data"]["n_train"]
    n_test = cfg["data"]["n_test"]
    files = {}
    if cfg["task"] == "fractal":
        train_set = specs["fractal"].sample(n_train, derive_seed(seed, 100))
        train_set.to_csv(out / "train.csv")
        files["train.csv"] = len(train_set)
    else:
        train_set = sample_gmm(specs["base"], n_train, derive_seed(seed, 100))
        train_set.to_csv(out / "train.csv")
        files["train.csv"] = len(train_set)
        if cfg["task"] == "simplex":
            for i, region in enumerate(("mode", "saddle", "outlier")):
                spec = specs["base"] if region == "mode" else specs[region]
                pts = sample_gmm(spec, n_test, derive_seed(seed, 101 + i))
                tagged = LabeledPointSet(pts.points, pts.labels, [region] * len(pts))
                tagged.to_csv(out / f"test_{region}.csv")
                files[f"test_{region}.csv"] = len(tagged)
    _write_manifest(out / "gen_data_manifest.json", "gen-data", cfg, {"files": files})
    print(f"gen-data: wrote {sorted(files)} to {out}")
    return 0


def cmd_train(cfg: dict) -> int:
    out = _ensure_out(cfg)
    train_csv = out / "train.csv"
    if not train_csv.exists():
        raise MissingArtifact(f"{train_csv} not found; run gen-data first")
    dataset = _read_points(train_csv)
    models = cfg.get("models")
    if not models:
        raise ConfigError("train needs a models section")
    for name in sorted(models):
        mcfg = models[name]
        try:
            model = train(dataset, mcfg["hidden"], train_config(cfg, name),
                          conditional=mcfg.get("conditional", False))
        except TrainingDiverged as exc:
            if exc.last_good is not None:
                save_checkpoint(exc.last_good, out / f"{name}_lastgood.ckpt")
            raise NumericFailure(f"training {name!r} diverged at batch {exc.batch} "
                                 f"(loss {exc.loss}); last good checkpoint saved") from exc
        save_checkpoint(model, out / f"{name}.ckpt")
        losses = [{"batch": b, "lr": lr, "loss": loss} for b, lr, loss in model.loss_history]
        evaluation.sweep_to_csv(losses, out / f"{name}_loss.csv")
        print(f"train: {name} final loss {model.loss_history[-1][2]:.6g} -> {name}.ckpt")
    _write_manifest(out / "train_manifest.json", "train", cfg)
    return 0


def _load_models(out: Path, names) -> dict:
    table = {}
    for name in names:
        path = out / f"{name}.ckpt"
        if not path.exists():
            raise MissingArtifact(f"checkpoint {path} not found; run train first")
        try:
            table[name], _ = load_checkpoint(path)
        except ValueError as exc:
            raise MissingArtifact(f"unreadable checkpoint: {exc}") from exc
    return table


def _class_ids_for(cfg: dict, model, n_samples: int):
    """sample.class_id for every trajectory: None, one id (negative means
    unconditional) or, for "random", one seeded draw per trajectory."""
    choice = cfg["sample"].get("class_id")
    if choice is None or not model.conditional:
        return None
    if choice == "random":
        return np.asarray([int(generator(derive_seed(cfg["seed"], i), 2).integers(model.n_classes))
                           for i in range(n_samples)])
    if choice >= model.n_classes:
        raise ConfigError(f"sample.class_id {choice} is not a class of model "
                          f"{cfg['sample']['model']!r}, which has {model.n_classes} classes")
    return choice


def _stack_sampler(cfg: dict, out: Path, specs):
    """Load sample.model (as 'main') plus the companions of specs; returns
    run(stack) -> (Trajectories, Schedule), which samples one guidance stack
    over that model table with the run's seed, schedule and class ids."""
    main = cfg["sample"]["model"]
    table = _load_models(out, sorted({main} | {s.companion for s in specs if s.companion}))
    table["main"] = table[main]
    mode = "eps" if cfg["schedule"]["kind"] == "sigma" else "flow"
    gmm = task_specs(cfg).get("base")
    n_samples = cfg["sample"]["n_samples"]
    class_ids = _class_ids_for(cfg, table["main"], n_samples)
    sch = schedule(cfg)

    def run(stack):
        provider = GuidedProvider(table, stack, mode=mode, gmm=gmm)
        trajs = sample(provider, sch, n_samples, cfg["seed"], class_ids=class_ids,
                       chunk_size=cfg["sample"]["chunk_size"], threads=cfg["threads"])
        if trajs.n_failed == n_samples:
            raise NumericFailure("all trajectories became non-finite")
        return trajs, sch

    return run


def cmd_sample(cfg: dict) -> int:
    out = _ensure_out(cfg)
    specs = guidance_stack(cfg)
    trajs, sch = _stack_sampler(cfg, out, specs)(specs)
    n_samples = cfg["sample"]["n_samples"]
    tag = _sample_tag(cfg)
    trajs.to_point_set().to_csv(out / f"samples_{tag}.csv")
    extra = {"tag": tag, "n_failed": trajs.n_failed, "n_samples": n_samples}
    if trajs.sfg_trace is not None:
        extra["sfg_stats"] = evaluation.sfg_stats(trajs.sfg_trace)
        lam, gate, alpha = (trajs.sfg_trace[k] for k in ("lambda", "gate", "alpha"))
        evaluation.sweep_to_csv([{"step": k, "level": sch.steps[k], "gate_fraction": gate[k].mean(),
                                  "lambda_mean": lam[k].mean(), "lambda_min": lam[k].min(),
                                  "lambda_max": lam[k].max(), "alpha_mean": alpha[k].mean()}
                                 for k in range(len(lam))], out / f"sfg_trace_{tag}.csv")
    _write_manifest(out / f"sample_manifest_{tag}.json", "sample", cfg, extra)
    print(f"sample: {n_samples - trajs.n_failed} ok ({trajs.n_failed} failed) -> samples_{tag}.csv")
    return 0


def _frechet_sized(s: LabeledPointSet) -> LabeledPointSet:
    """s, if it has enough points for the Frechet distance's full-rank
    covariance; failed trajectories or an empty samples file can leave too few."""
    if len(s) <= s.dim:
        raise NumericFailure(f"{len(s)} finite samples are too few for the Frechet "
                             f"distance in {s.dim}-d")
    return s


def _sample_metrics(cfg: dict, specs: dict) -> dict:
    """Sample-set metrics against the task's exact reference: Frechet distance
    to a seeded reference draw, outlier rate and coverage entropy. Each returns
    a finite float or raises NumericFailure naming the metric."""
    ecfg = cfg["eval"]
    n, seed = ecfg["frechet_reference_n"], derive_seed(cfg["seed"], 999)
    if cfg["task"] == "fractal":
        manifold = specs["fractal"]
        draw = lambda: manifold.sample(n, seed).points
        threshold = ecfg["outlier_threshold"] or 3.0 * manifold.spec.jitter_sigma
    else:
        manifold = specs["base"]
        draw = lambda: sample_gmm(manifold, n, seed).points
        threshold = ecfg["outlier_threshold"] or 4.0
    # drawn on first use, so the reference is not held while the larger
    # outlier/coverage arrays of an earlier metric call are alive
    ref = functools.cache(draw)

    def finite(name, fn):
        def metric(s) -> float:
            value = float(fn(s))
            if not np.isfinite(value):
                raise NumericFailure(f"metric {name} is {value}, not a finite number")
            return value
        return metric

    return {name: finite(name, fn) for name, fn in {
        "frechet": lambda s: evaluation.gaussian_frechet(_frechet_sized(s), ref()),
        "outlier_rate": lambda s: evaluation.outlier_rate(s, manifold, threshold),
        "coverage_entropy": lambda s: evaluation.coverage_entropy(s, manifold),
    }.items()}


def cmd_eval(cfg: dict) -> int:
    out = _ensure_out(cfg)
    specs = task_specs(cfg)
    ecfg = cfg["eval"]
    report = {}
    tables = {}

    name = cfg["sample"]["model"]
    if cfg["task"] == "simplex" and (out / f"{name}.ckpt").exists():
        model = _load_models(out, [name])[name]
        region_specs = {"mode": specs["base"], "saddle": specs["saddle"], "outlier": specs["outlier"]}
        sigmas = ecfg.get("sigmas") or list(np.geomspace(0.02, 10.0, 12))
        rows = evaluation.esm_by_region(model, region_specs, sigmas, ecfg["n_per_region"], cfg["seed"])
        evaluation.sweep_to_csv(rows, out / "esm_rows.csv")
        tables["esm_rows.csv"] = len(rows)
        report["esm_rows"] = rows

    # a relative samples_file is relative to out; an absolute one replaces it
    spath = out / (ecfg.get("samples_file") or f"samples_{_sample_tag(cfg)}.csv")
    if ecfg.get("samples_file") and not spath.exists():
        raise MissingArtifact(f"samples file {spath} not found")
    if spath.exists():
        samples = _frechet_sized(_read_points(spath))  # every eval computes the Frechet distance
        metrics = _sample_metrics(cfg, specs)
        for key in ("outlier_rate", "coverage_entropy", "frechet"):
            report[key] = metrics[key](samples)
        manifest = out / f"sample_manifest_{spath.stem.replace('samples_', '')}.json"
        if manifest.exists():
            report["sfg_stats"] = json.loads(manifest.read_text()).get("extra", {}).get("sfg_stats")

    if cfg["task"] == "two_gaussian" and "field" in ecfg:
        fcfg = ecfg["field"]
        grid = evaluation.make_grid(fcfg.get("grid_lo", -4.0), fcfg.get("grid_hi", 4.0),
                                    fcfg.get("grid_n", 21))
        for var in fcfg.get("variances", [4.0, 2.0, 0.5]):
            g = smooth(specs["base"], float(np.sqrt(var)))
            rows = evaluation.curvature_field(g, grid)
            fname = f"field_var{var:g}.csv"
            evaluation.sweep_to_csv(rows, out / fname)
            tables[fname] = len(rows)

    evaluation.EvalReport(**report).to_json(out / "eval_report.json")
    _write_manifest(out / "eval_manifest.json", "eval", cfg, {"tables": tables})
    print(f"eval: report -> {out / 'eval_report.json'}")
    return 0


def cmd_sweep(cfg: dict) -> int:
    out = _ensure_out(cfg)
    if not cfg.get("sweep"):
        raise ConfigError("sweep needs a sweep section")
    points = sweep_points(cfg)
    run = _stack_sampler(cfg, out, [s for _, stack in points for s in stack])
    available = _sample_metrics(cfg, task_specs(cfg))
    metrics = {name: available[name] for name in cfg["sweep"].get("metrics", ["frechet"])}
    rows = []
    for run_id, (row, stack) in enumerate(points):
        try:
            samples = run(stack)[0].to_point_set()
            rows.append({**row, **{name: fn(samples) for name, fn in metrics.items()}})
        except NumericFailure as exc:
            labels = ", ".join(f"{key}={value:g}" for key, value in row.items())
            raise NumericFailure(f"sweep run {run_id} ({labels}) failed: {exc}") from exc
    evaluation.sweep_to_csv(rows, out / "sweep.csv")
    _write_manifest(out / "sweep_manifest.json", "sweep", cfg, {"rows": len(rows)})
    print(f"sweep: {len(rows)} rows -> {out / 'sweep.csv'}")
    return 0


def cmd_plot(args) -> int:
    inputs = [Path(p) for p in args.inputs]
    for p in inputs:
        if not p.exists():
            raise MissingArtifact(f"plot input {p} not found")
    if args.kind == "scatter":
        panels = []
        for p in inputs:
            ps = _read_points(p)
            if len(ps) and ps.dim != 2:
                raise ConfigError(f"{p}: {ps.dim}-dimensional points; project to 2D before plotting")
            panels.append((ps.points, ps.labels, p.stem))
        doc = svg.scatter_svg(panels)
    elif args.kind == "field":
        if len(inputs) != 1:
            raise ConfigError("field plots take exactly one input table")
        doc = svg.field_svg(_read_table(inputs[0], svg.field_columns))
    elif args.kind == "sweep":
        if len(inputs) != 1:
            raise ConfigError("sweep plots take exactly one input table")

        def plotted(header):
            for axis, key in [("x", args.x), *(("y", y) for y in args.y)]:
                if key not in header:
                    raise ConfigError(f"{axis} column {key!r} not in {sorted(header)}")
            return [args.x, *args.y]

        doc = svg.line_chart_svg(_read_table(inputs[0], plotted), args.x, args.y, group_key=args.group)
    else:
        raise ConfigError(f"unknown plot kind {args.kind!r}")
    out = Path(args.out_file)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(doc)
    print(f"plot: -> {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--threads", type=int, default=None, help="trajectory worker threads")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfglab",
                                     description="guidance laboratory for score-based toy models")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "train", "sample", "eval", "sweep"):
        _add_common(sub.add_parser(name))
    plot = sub.add_parser("plot")
    plot.add_argument("--kind", required=True, choices=["scatter", "field", "sweep"])
    plot.add_argument("--inputs", nargs="+", required=True)
    plot.add_argument("--out", dest="out_file", required=True, help="output SVG path")
    plot.add_argument("--x", default="weight")
    plot.add_argument("--y", nargs="+", default=["frechet"])
    plot.add_argument("--group", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "plot":
            return cmd_plot(args)
        cfg = load_config(args.config, {"seed": args.seed, "out": args.out, "threads": args.threads})
        dispatch = {
            "gen-data": cmd_gen_data,
            "train": cmd_train,
            "sample": cmd_sample,
            "eval": cmd_eval,
            "sweep": cmd_sweep,
        }
        return dispatch[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MissingArtifact as exc:
        print(f"missing artifact: {exc}", file=sys.stderr)
        return 4
    except (NumericFailure, TrainingDiverged, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
