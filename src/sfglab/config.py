"""Run configuration: JSON checked against a published schema, and the
builders that turn a config into run objects (task_specs, train_config,
schedule, guidance_stack, sweep_points). The schema fixes shape and types;
each value rule lives in the constructor that consumes the value. The
commands call these builders, and loading calls all of them once, so a
config that loads does not fail later on a value they check."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import os

from jsonschema import Draft202012Validator, validators
from jsonschema.exceptions import best_match

from .datasets import (FractalSpec, make_fractal, make_outlier_gmm, make_saddle_gmm,
                       make_simplex_gmm, make_two_gaussian)
from .guidance import GUIDANCE_KINDS, GuidanceSpec, check_stack
from .model import TrainConfig
from .rng import derive_seed
from .sampler import Schedule, flow_time_schedule, sigma_schedule


class ConfigError(ValueError):
    """Invalid configuration or CLI usage (exit code 2)."""


class MissingArtifact(FileNotFoundError):
    """A required dataset/checkpoint/input file is absent or unreadable (exit code 4)."""


class NumericFailure(RuntimeError):
    """Numeric breakdown during compute (exit code 3)."""


_GUIDANCE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": list(GUIDANCE_KINDS)},
        "weight": {"type": "number"},
        "interval": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
        "companion": {"type": "string"},
        "classifier_class": {"type": "integer"},
        "alpha0": {"type": "number"},
        "h": {"type": "number"},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

_TRAIN_SCHEMA = {
    "type": "object",
    "properties": {
        "batches": {"type": "integer"},
        "batch_size": {"type": "integer", "minimum": 1},
        "warmup_batches": {"type": "integer", "minimum": 0},
        "lr": {"type": "number"},
        "cosine_anneal": {"type": "boolean"},
        "weight_decay": {"type": "number", "minimum": 0},
        "objective": {"type": "string"},
        "sigma_min": {"type": "number"},
        "sigma_max": {"type": "number"},
        "label_dropout": {"type": "number"},
    },
    "additionalProperties": False,
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "task": {"enum": ["simplex", "two_gaussian", "fractal"]},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
        "data": {
            "type": "object",
            "properties": {
                "n_train": {"type": "integer", "minimum": 1},
                "n_test": {"type": "integer", "minimum": 1},
                "simplex": {
                    "type": "object",
                    "properties": {
                        "n_components": {"type": "integer"},
                        "ambient_dim": {"type": "integer"},
                        "scale": {"type": "number"},
                    },
                    "required": ["n_components", "ambient_dim", "scale"],
                    "additionalProperties": False,
                },
                "two_gaussian": {
                    "type": "object",
                    "properties": {
                        "separation": {"type": "number"},
                        "base_variance": {"type": "number"},
                        "ambient_dim": {"type": "integer"},
                    },
                    "required": ["separation", "base_variance", "ambient_dim"],
                    "additionalProperties": False,
                },
                "fractal": {
                    "type": "object",
                    "properties": {
                        "depth": {"type": "integer"},
                        "branch_angle": {"type": "number"},
                        "shrink_ratio": {"type": "number"},
                        "jitter_sigma": {"type": "number"},
                        "n_classes": {"type": "integer"},
                    },
                    "required": ["depth", "branch_angle", "shrink_ratio", "jitter_sigma"],
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "models": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "hidden": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
                    "conditional": {"type": "boolean"},
                    "train": _TRAIN_SCHEMA,
                },
                "required": ["hidden"],
                "additionalProperties": False,
            },
        },
        "train": _TRAIN_SCHEMA,
        "schedule": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["sigma", "flow_time"]},
                "n_steps": {"type": "integer"},
                "sigma_min": {"type": "number"},
                "sigma_max": {"type": "number"},
                "rho": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "sample": {
            "type": "object",
            "properties": {
                "n_samples": {"type": "integer", "minimum": 1},
                "model": {"type": "string"},
                "class_id": {"anyOf": [{"type": ["integer", "null"]}, {"const": "random"}]},
                "chunk_size": {"type": "integer", "minimum": 1},
                "tag": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "guidance": {"type": "array", "items": _GUIDANCE_SCHEMA},
        "eval": {
            "type": "object",
            "properties": {
                "sigmas": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                "n_per_region": {"type": "integer", "minimum": 1},
                "outlier_threshold": {"type": ["number", "null"]},
                "frechet_reference_n": {"type": "integer", "minimum": 2},
                "samples_file": {"type": "string"},
                "field": {
                    "type": "object",
                    "properties": {
                        "variances": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                        "grid_lo": {"type": "number"},
                        "grid_hi": {"type": "number"},
                        "grid_n": {"type": "integer", "minimum": 2},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
        "sweep": {
            "type": "object",
            "properties": {
                "kind": {"enum": [k for k in GUIDANCE_KINDS if k != "none"]},
                "weights": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "alphas": {"type": ["array", "null"], "items": {"type": "number"}},
                "h_values": {"type": ["array", "null"], "items": {"type": "number"}},
                "metrics": {"type": "array", "items": {"enum": ["frechet", "outlier_rate", "coverage_entropy"]},
                            "minItems": 1},
                "companion": {"type": "string"},
                "interval": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            },
            "required": ["kind", "weights"],
            "additionalProperties": False,
        },
    },
    "required": ["task", "seed"],
    "additionalProperties": False,
}

DEFAULTS = {
    "threads": 1,
    "out": "runs/out",
    "data": {"n_train": 1000, "n_test": 1000},
    "train": {
        "batches": 3000, "batch_size": 200, "warmup_batches": 100, "lr": 1e-3,
        "cosine_anneal": True, "weight_decay": 1e-5, "objective": "dsm",
        "sigma_min": 0.02, "sigma_max": 10.0, "label_dropout": 0.1,
    },
    "schedule": {"kind": "sigma", "n_steps": 100, "sigma_min": 0.002, "sigma_max": 80.0, "rho": 7.0},
    "sample": {"n_samples": 1000, "model": "main", "class_id": None, "chunk_size": 256},
    "guidance": [{"kind": "none"}],
    "eval": {"n_per_region": 1000, "outlier_threshold": None, "frechet_reference_n": 4000},
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


def task_specs(cfg: dict) -> dict:
    """The task's generative objects: the simplex mixture ('base') with its
    'saddle' and 'outlier' companions, the two-Gaussian mixture ('base'), or
    the 'fractal'."""
    task = cfg["task"]
    s = cfg["data"][task]
    if task == "simplex":
        base = make_simplex_gmm(s["n_components"], s["ambient_dim"], s["scale"])
        return {"base": base, "saddle": make_saddle_gmm(base), "outlier": make_outlier_gmm(base)}
    if task == "two_gaussian":
        return {"base": make_two_gaussian(s["separation"], s["base_variance"], s["ambient_dim"])}
    s = {"n_classes": 2 if s["depth"] > 1 else 1, **s}
    return {"fractal": make_fractal(FractalSpec(**s))}


def train_config(cfg: dict, name: str) -> TrainConfig:
    """Training settings of model `name`: the run's train section overridden
    by the model's own, seeded from the run seed and a hash of the name."""
    name_key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return TrainConfig(**{**cfg["train"], **cfg["models"][name].get("train", {})},
                       seed=derive_seed(cfg["seed"], name_key))


def schedule(cfg: dict) -> Schedule:
    """The sampling schedule: power-law sigmas, or the same spacing mapped to
    flow time."""
    s = cfg["schedule"]
    make = sigma_schedule if s["kind"] == "sigma" else flow_time_schedule
    return make(s["n_steps"], s["sigma_min"], s["sigma_max"], s["rho"])


def guidance_stack(cfg: dict) -> list[GuidanceSpec]:
    """The run's guidance list as specs."""
    return [GuidanceSpec(**d) for d in cfg["guidance"]]


def sweep_points(cfg: dict) -> list[tuple[dict, list[GuidanceSpec]]]:
    """One (sweep.csv row labels, one-spec guidance stack) per grid point, in
    run order: weights outermost, then alphas, then h_values. alpha and h label
    the row, and set the spec's alpha0 and h, only when an sfg sweep lists them."""
    sw = cfg["sweep"]
    for key in ("alphas", "h_values"):
        if sw.get(key) and sw["kind"] != "sfg":
            raise ValueError(f"sweep.{key} applies only to an sfg sweep, not {sw['kind']!r}")
    fixed = {key: sw[key] for key in ("kind", "companion", "interval") if key in sw}
    if sw["kind"] == "classifier":  # the class of the run's classifier spec, if it has one
        fixed["classifier_class"] = next((d["classifier_class"] for d in cfg["guidance"]
                                          if d["kind"] == "classifier"), 0)
    points = []
    grid = itertools.product(sw["weights"], sw.get("alphas") or [None], sw.get("h_values") or [None])
    for w, a, h in grid:
        row = {"weight": float(w)}
        spec = dict(fixed, weight=float(w))
        if a is not None:
            row["alpha"] = spec["alpha0"] = float(a)
        if h is not None:
            row["h"] = spec["h"] = float(h)
        points.append((row, [GuidanceSpec(**spec)]))
    return points


def _cross_field_check(cfg: dict) -> None:
    task = cfg["task"]
    if task not in cfg.get("data", {}):
        raise ConfigError(f"task {task!r} needs a data.{task} section")
    models = cfg.get("models", {})
    main = cfg["sample"]["model"]
    if models and main not in models:
        raise ConfigError(f"sample.model {main!r} not among models {sorted(models)}")
    where = f"data.{task}"
    try:
        specs = task_specs(cfg)
        for name in sorted(models):
            where = f"train settings of model {name!r}"
            train_config(cfg, name)
        where = "schedule"
        schedule(cfg)
        where = "guidance"
        stacks = [guidance_stack(cfg)]
        if cfg.get("sweep"):
            stacks += [stack for _, stack in sweep_points(cfg)]
        for stack in stacks:
            check_stack(stack, models)
    except (ValueError, ArithmeticError) as exc:  # e.g. a schedule whose rho overflows
        raise ConfigError(f"bad {where}: {exc}") from exc
    # every eval computes the Frechet distance, which needs a full-rank covariance
    dim = 2 if task == "fractal" else specs["base"].dim  # the fractal lives in the plane
    for section, key in (("sample", "n_samples"), ("eval", "frechet_reference_n")):
        if cfg[section][key] <= dim:
            raise ConfigError(f"{section}.{key} {cfg[section][key]} must exceed the data dimension "
                              f"{dim} (the Frechet distance needs a full-rank covariance)")
    kinds = {s.kind for stack in stacks for s in stack}
    if kinds & {"cfg", "interval_cfg"} and not models.get(main, {}).get("conditional", False):
        raise ConfigError(f"cfg needs a conditional main model (got {main!r})")
    if "classifier" in kinds and task == "fractal":
        raise ConfigError("classifier guidance needs a mixture task (exact Bayes oracle)")


# JSON integers only: an integral float such as 7.0 is not an integer here
_TYPES = Draft202012Validator.TYPE_CHECKER.redefine(
    "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool))
_VALIDATOR = validators.extend(Draft202012Validator, type_checker=_TYPES)(SCHEMA)


def validate_config(raw: dict) -> dict:
    """Schema check, defaults, then cross-field checks; returns the merged config."""
    error = best_match(_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config schema violation at {list(error.absolute_path)}: {error.message}")
    cfg = _deep_merge(DEFAULTS, raw)
    _cross_field_check(cfg)
    return cfg


_ENV = {"seed": "SFGLAB_SEED", "out": "SFGLAB_OUT", "threads": "SFGLAB_THREADS"}


def _env_int(var: str) -> int:
    try:
        return int(os.environ[var])
    except ValueError:
        raise ConfigError(f"{var} must be an integer, got {os.environ[var]!r}") from None


def _not_a_number(constant: str):
    raise ConfigError(f"config is not valid JSON: {constant} is not a JSON number")


def load_config(path, overrides=None) -> dict:
    """Read, override and validate a run config. The SFGLAB_SEED/SFGLAB_OUT/
    SFGLAB_THREADS environment variables override the file, and the non-None
    entries of overrides (seed/out/threads, the CLI flags) override both;
    the result is validated like the file itself."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_not_a_number)
    except FileNotFoundError as exc:
        raise MissingArtifact(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(raw, dict):  # anything else fails the schema
        for key, var in _ENV.items():
            if var in os.environ:
                raw[key] = os.environ[var] if key == "out" else _env_int(var)
        raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
