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
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, evaluation, svg
from .config import ConfigError, MissingArtifact, NumericFailure, Run, config_hash, load_config
from .datasets import LabeledPointSet, read_csv, sample_gmm
from .model import TrainingDiverged, load_checkpoint, save_checkpoint, train
from .oracle import smooth
from .rng import CLASS_IDS, derive_seed, generator
from .sampler import GuidedProvider, initial_latents, sample


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


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(path: Path, command: str, cfg: dict, extra: dict | None = None) -> None:
    # threads is execution machinery, not run identity: outputs must be
    # byte-identical for any thread count, manifests included
    identity = {k: v for k, v in cfg.items() if k != "threads"}
    doc = {"command": command, "version": __version__, "seed": cfg["seed"],
           "config_hash": config_hash(identity), "config": identity}
    if extra:
        doc["extra"] = extra
    _write_json(path, doc)


def _read_points(path) -> LabeledPointSet:
    try:
        return LabeledPointSet.from_csv(path)
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"unreadable point set: {exc}") from exc


def _check_dim(path, dim: int, task_dim: int) -> None:
    """A dataset, model or sample artifact must hold points of the task's dimension."""
    if dim != task_dim:
        raise MissingArtifact(f"{path} holds {dim}-d data, but the task is {task_dim}-d")


def _number_or_text(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _read_table(path, columns) -> list[dict]:
    """Rows of a CSV table to plot, each cell a float where it parses. Every
    name in columns(header) must be a column whose cells all parse; a
    malformed or unreadable table is a MissingArtifact naming the file."""
    records = read_csv(path)
    try:
        header = next(records)
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"unreadable table: {exc}") from exc
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
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"unreadable table: {exc}") from exc
    return rows


def _sfg_stats_of(manifest: Path):
    """The sfg_stats a sample manifest records, or None; a manifest that is
    unreadable or not a JSON object is a MissingArtifact naming the file."""
    try:
        doc = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise MissingArtifact(f"unreadable sample manifest {manifest}: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("extra", {}), dict):
        raise MissingArtifact(f"unreadable sample manifest {manifest}: not a manifest object")
    return doc.get("extra", {}).get("sfg_stats")


# ---------------------------------------------------------------------------
# commands

def cmd_gen_data(run: Run) -> int:
    cfg = run.cfg
    out = _ensure_out(cfg)
    train_set = sample_gmm(run.specs["base"], cfg["data"]["n_train"], derive_seed(cfg["seed"], 100))
    train_set.to_csv(out / "train.csv")
    _write_manifest(out / "gen_data_manifest.json", "gen-data", cfg, {"files": {"train.csv": len(train_set)}})
    print(f"gen-data: wrote ['train.csv'] to {out}")
    return 0


def cmd_train(run: Run) -> int:
    cfg = run.cfg
    if not run.train:
        raise ConfigError("train needs a models section")
    out = _ensure_out(cfg)
    train_csv = out / "train.csv"
    if not train_csv.exists():
        raise MissingArtifact(f"{train_csv} not found; run gen-data first")
    dataset = _read_points(train_csv)
    if len(dataset) == 0:
        raise MissingArtifact(f"{train_csv} holds no points; run gen-data again")
    _check_dim(train_csv, dataset.dim, run.specs["base"].dim)
    labels = run.specs["base"].labels
    foreign = dataset.labels[~np.isin(dataset.labels, labels)]
    if foreign.size:
        raise MissingArtifact(f"{train_csv}: label {foreign[0]} is not a label of the {cfg['task']} "
                              f"task; its labels are {sorted(set(labels.tolist()))}")
    for name, tcfg in run.train.items():
        mcfg = cfg["models"][name]
        try:
            model = train(dataset, mcfg["hidden"], tcfg, conditional=mcfg.get("conditional", False))
        except TrainingDiverged as exc:
            saved = "no good checkpoint to save"
            if exc.last_good is not None:
                save_checkpoint(exc.last_good, out / f"{name}_lastgood.ckpt")
                saved = f"last good checkpoint saved to {name}_lastgood.ckpt"
            raise NumericFailure(f"training {name!r} diverged at batch {exc.batch} "
                                 f"({exc.what}); {saved}") from exc
        save_checkpoint(model, out / f"{name}.ckpt")
        losses = [{"batch": b, "lr": lr, "loss": loss} for b, lr, loss in model.loss_history]
        evaluation.sweep_to_csv(losses, out / f"{name}_loss.csv")
        print(f"train: {name} final loss {model.loss_history[-1][2]:.6g} -> {name}.ckpt")
    _write_manifest(out / "train_manifest.json", "train", cfg)
    return 0


def _load_models(out: Path, names, dim: int) -> dict:
    """The checkpoints `<name>.ckpt` in out, each a model of dim-d data."""
    table = {}
    for name in names:
        path = out / f"{name}.ckpt"
        if not path.exists():
            raise MissingArtifact(f"checkpoint {path} not found; run train first")
        try:
            table[name], _ = load_checkpoint(path)
        except (OSError, ValueError) as exc:
            raise MissingArtifact(f"unreadable checkpoint: {exc}") from exc
        _check_dim(path, table[name].data_dim, dim)
    return table


def _class_ids_for(cfg: dict, model, n_samples: int):
    """sample.class_id for every trajectory: None, one id (negative means
    unconditional) or, for "random", one draw of n_samples ids from
    generator(seed, rng.CLASS_IDS), entry i for trajectory i. An unconditional
    model takes "random" and negative ids as None and rejects any other id."""
    choice = cfg["sample"].get("class_id")
    if choice is None or (not model.conditional and (choice == "random" or choice < 0)):
        return None
    if choice == "random":
        return generator(cfg["seed"], CLASS_IDS).integers(model.n_classes, size=n_samples)
    if choice >= (model.n_classes or 0):
        has = f"has {model.n_classes} classes" if model.conditional else "is unconditional"
        raise ConfigError(f"sample.class_id {choice} is not a class of model "
                          f"{cfg['sample']['model']!r}, which {has}")
    return choice


def _stack_sampler(run: Run, out: Path, specs):
    """Load sample.model plus the companions of specs, each under its own
    name; returns sample_stack(stack) -> Trajectories, which samples one
    guidance stack over that model table with the run's seed, schedule, class
    ids and start latents, drawn once: they depend on none of the stack."""
    cfg, sch, gmm = run.cfg, run.schedule, run.specs["base"]
    main = cfg["sample"]["model"]
    table = _load_models(out, sorted({main} | {s.companion for s in specs if s.companion}), gmm.dim)
    n_samples = cfg["sample"]["n_samples"]
    class_ids = _class_ids_for(cfg, table[main], n_samples)
    x0 = initial_latents(cfg["seed"], n_samples, table[main].data_dim, sch.sigmas[0])

    def sample_stack(stack):
        provider = GuidedProvider(table, stack, gmm=gmm, main=main)
        trajs = sample(provider, sch, n_samples, cfg["seed"], class_ids=class_ids,
                       chunk_size=cfg["sample"]["chunk_size"], threads=cfg["threads"], x0=x0)
        if trajs.n_failed == n_samples:
            raise NumericFailure("all trajectories became non-finite")
        return trajs

    return sample_stack


def cmd_sample(run: Run) -> int:
    cfg, tag = run.cfg, run.tag
    out = _ensure_out(cfg)
    trajs = _stack_sampler(run, out, run.guidance)(run.guidance)
    n_samples = cfg["sample"]["n_samples"]
    trajs.to_point_set().to_csv(out / f"samples_{tag}.csv")
    extra = {"tag": tag, "n_failed": trajs.n_failed, "n_samples": n_samples}
    if trajs.sfg_trace is not None:
        # over the trajectories that did not fail, whose trace can hold NaN
        trace = {k: v[:, ~trajs.failed] for k, v in trajs.sfg_trace.items()}
        extra["sfg_stats"] = evaluation.sfg_stats(trace)
        lam, gate, alpha = (trace[k] for k in ("lambda", "gate", "alpha"))
        evaluation.sweep_to_csv([{"step": k, "level": run.schedule.sigmas[k], "gate_fraction": gate[k].mean(),
                                  "lambda_mean": lam[k].mean(), "lambda_min": lam[k].min(),
                                  "lambda_max": lam[k].max(), "alpha_mean": alpha[k].mean()}
                                 for k in range(len(lam))], out / f"sfg_trace_{tag}.csv")
    _write_manifest(out / f"sample_manifest_{tag}.json", "sample", cfg, extra)
    print(f"sample: {n_samples - trajs.n_failed} ok ({trajs.n_failed} failed) -> samples_{tag}.csv")
    return 0


def _sample_metrics(run: Run, samples: LabeledPointSet, names) -> dict[str, float]:
    """The named metrics of evaluation.METRICS on samples against the task
    mixture, each a finite float; NumericFailure names a metric whose
    precondition the samples miss or whose value is not finite."""
    metrics = {}
    for name in names:
        try:
            value = evaluation.METRICS[name](samples, run.specs["base"], run.cfg["eval"])
        except ValueError as exc:  # failed trajectories or a short samples file
            raise NumericFailure(f"metric {name}: {exc}") from exc
        if not np.isfinite(value):
            raise NumericFailure(f"metric {name} is {value}, not a finite number")
        metrics[name] = float(value)
    return metrics


def cmd_eval(run: Run) -> int:
    cfg, specs = run.cfg, run.specs
    out = _ensure_out(cfg)
    ecfg = cfg["eval"]
    # every key is present: a section this task or run does not fill stays empty
    report = {"esm_rows": [], **dict.fromkeys(evaluation.METRICS), "sfg_stats": None}
    tables = {}

    name = cfg["sample"]["model"]
    if cfg["task"] == "simplex" and (out / f"{name}.ckpt").exists():
        region_specs = {"mode": specs["base"], "saddle": specs["saddle"], "outlier": specs["outlier"]}
        sigmas = ecfg.get("sigmas", list(np.geomspace(0.02, 10.0, 12)))
        # the model and its inference buffers are freed before the larger sample metrics run
        rows = evaluation.esm_by_region(_load_models(out, [name], specs["base"].dim)[name], region_specs,
                                        sigmas, ecfg["n_per_region"], cfg["seed"])
        evaluation.sweep_to_csv(rows, out / "esm_rows.csv")
        tables["esm_rows.csv"] = len(rows)
        report["esm_rows"] = rows

    # a relative samples_file is relative to out; an absolute one replaces it
    spath = out / (ecfg.get("samples_file") or f"samples_{run.tag}.csv")
    if ecfg.get("samples_file") and not spath.exists():
        raise MissingArtifact(f"samples file {spath} not found")
    if spath.exists():
        samples = _read_points(spath)
        _check_dim(spath, samples.dim, specs["base"].dim)
        report.update(_sample_metrics(run, samples, evaluation.METRICS))
        # the manifest of the sample run that wrote the file sits beside it
        manifest = spath.with_name(f"sample_manifest_{spath.stem.removeprefix('samples_')}.json")
        if manifest.exists():
            report["sfg_stats"] = _sfg_stats_of(manifest)

    if "field" in ecfg:  # a 2-d task mixture: config._build_run
        fcfg = ecfg["field"]
        grid = evaluation.make_grid(fcfg.get("grid_lo", -4.0), fcfg.get("grid_hi", 4.0),
                                    fcfg.get("grid_n", 21))
        for var in fcfg.get("variances", [4.0, 2.0, 0.5]):
            g = smooth(specs["base"], float(np.sqrt(var)))
            field = evaluation.curvature_field(g, grid)
            fname = f"field_var{var:g}.csv"
            evaluation.sweep_to_csv(field, out / fname)
            tables[fname] = len(grid)

    _write_json(out / "eval_report.json", report)
    _write_manifest(out / "eval_manifest.json", "eval", cfg, {"tables": tables})
    print(f"eval: report -> {out / 'eval_report.json'}")
    return 0


def cmd_sweep(run: Run) -> int:
    out = _ensure_out(run.cfg)
    if not run.sweep:
        raise ConfigError("sweep needs a sweep section")
    sample_stack = _stack_sampler(run, out, [s for _, stack in run.sweep for s in stack])
    metrics = run.cfg["sweep"].get("metrics", ["frechet"])
    rows = []
    for run_id, (row, stack) in enumerate(run.sweep):
        try:
            samples = sample_stack(stack).to_point_set()
            rows.append({**row, **_sample_metrics(run, samples, metrics)})
        except NumericFailure as exc:
            labels = ", ".join(f"{key}={value:g}" for key, value in row.items())
            raise NumericFailure(f"sweep run {run_id} ({labels}) failed: {exc}") from exc
    evaluation.sweep_to_csv(rows, out / "sweep.csv")
    _write_manifest(out / "sweep_manifest.json", "sweep", run.cfg, {"rows": len(rows)})
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
        doc = svg.field_svg(evaluation.table_columns(_read_table(inputs[0], svg.field_columns)))
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
        run = load_config(args.config, {"seed": args.seed, "out": args.out, "threads": args.threads})
        dispatch = {
            "gen-data": cmd_gen_data,
            "train": cmd_train,
            "sample": cmd_sample,
            "eval": cmd_eval,
            "sweep": cmd_sweep,
        }
        return dispatch[args.command](run)
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
