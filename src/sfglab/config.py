"""Run configuration: JSON checked against a published schema, and one
builder that turns a config into a Run, which holds every run object the
config describes (task mixtures, training settings, schedule, guidance stack,
sweep grid), each built once. The schema is a Draft 2020-12 document, checked
by a small built-in checker for the keywords it uses; it fixes shape and
types. Each value rule lives in the constructor that consumes the value.
Loading runs them all and the commands read the Run, so a config that loads
does not fail later on a value they check."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass

from .datasets import (Fractal, FractalSpec, make_outlier_gmm, make_saddle_gmm, make_simplex_gmm,
                       make_two_gaussian)
from .evaluation import METRICS
from .guidance import GUIDANCE_KINDS, GuidanceSpec, check_stack
from .model import TrainConfig
from .rng import derive_seed
from .sampler import Schedule, sigma_schedule


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
                # deprecated and ignored; accepted so that configs which set it still load
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
                "sigmas": {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0},
                           "minItems": 1},
                "n_per_region": {"type": "integer", "minimum": 1},
                "outlier_threshold": {"type": ["number", "null"], "exclusiveMinimum": 0},
                # deprecated and ignored (the Frechet distance takes the mixture's exact
                # moments); accepted so that configs which set it still load
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
                "metrics": {"type": "array", "items": {"enum": list(METRICS)}, "minItems": 1},
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
    "data": {"n_train": 1000},
    # TrainConfig's own defaults; the seed is derived per model from the run's seed
    "train": {f.name: f.default for f in dataclasses.fields(TrainConfig) if f.name != "seed"},
    "schedule": {"kind": "sigma", "n_steps": 100, "sigma_min": 0.002, "sigma_max": 80.0, "rho": 7.0},
    "sample": {"n_samples": 1000, "model": "main", "class_id": None, "chunk_size": 256},
    "guidance": [{"kind": "none"}],
    "eval": {"n_per_region": 1000, "outlier_threshold": None},
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
    """The task's exact mixtures: 'base', the training density of every task
    (the simplex mixture, the two-Gaussian mixture or the fractal's
    moment-matched mixture), plus the simplex's 'saddle' and 'outlier'
    companions."""
    task = cfg["task"]
    s = cfg["data"][task]
    if task == "simplex":
        base = make_simplex_gmm(s["n_components"], s["ambient_dim"], s["scale"])
        return {"base": base, "saddle": make_saddle_gmm(base), "outlier": make_outlier_gmm(base)}
    if task == "two_gaussian":
        return {"base": make_two_gaussian(s["separation"], s["base_variance"], s["ambient_dim"])}
    s = {"n_classes": 2 if s["depth"] > 1 else 1, **s}
    return {"base": Fractal(FractalSpec(**s)).gmm}


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


@dataclass(frozen=True)
class Run:
    """A validated config and the run objects it describes. cfg is the merged
    config that the manifests embed, specs the task_specs mixtures, sweep the
    sweep_points grid ([] without a sweep section) and tag the sample files'
    name piece: sample.tag, else the guidance kinds joined by '+'."""

    cfg: dict
    specs: dict
    train: dict[str, TrainConfig]
    schedule: Schedule
    guidance: list[GuidanceSpec]
    sweep: list[tuple[dict, list[GuidanceSpec]]]
    tag: str


def _build_run(cfg: dict) -> Run:
    """Build each run object of cfg once and check the rules that span
    fields; a value a constructor rejects is a ConfigError naming where."""
    task = cfg["task"]
    if task not in cfg.get("data", {}):
        raise ConfigError(f"task {task!r} needs a data.{task} section")
    tag = cfg["sample"].get("tag") or "+".join(d["kind"] for d in cfg["guidance"]) or "none"
    if {"/", "\\", "\0"} & set(tag):  # the tag names files in out, so it may not leave it
        raise ConfigError(f"sample.tag {tag!r} must be a plain file-name piece (no path separator or NUL)")
    models = cfg.get("models", {})
    main = cfg["sample"]["model"]
    if models and main not in models:
        raise ConfigError(f"sample.model {main!r} not among models {sorted(models)}")
    where = f"data.{task}"
    try:
        specs = task_specs(cfg)
        train = {}
        for name in sorted(models):  # the run's train section under the model's own
            where = f"train settings of model {name!r}"
            name_key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
            train[name] = TrainConfig(**{**cfg["train"], **models[name].get("train", {})},
                                      seed=derive_seed(cfg["seed"], name_key))
        where = "schedule"
        sc = cfg["schedule"]
        schedule = sigma_schedule(sc["n_steps"], sc["sigma_min"], sc["sigma_max"], sc["rho"],
                                  solver="heun" if sc["kind"] == "sigma" else "euler")
        where = "guidance"
        guidance = [GuidanceSpec(**d) for d in cfg["guidance"]]
        sweep = sweep_points(cfg) if cfg.get("sweep") else []
        stacks = [guidance, *(stack for _, stack in sweep)]
        for stack in stacks:
            check_stack(stack, models)
    except (ValueError, ArithmeticError) as exc:  # e.g. a schedule whose rho overflows
        raise ConfigError(f"bad {where}: {exc}") from exc
    used = [spec for stack in stacks for spec in stack]
    # a flow-matching model runs at flow time sigma/(1 + sigma), which must stay
    # below 1; sample and sweep evaluate sample.model and the companions
    top = schedule.sigmas[0]
    flow = sorted(name for name in train.keys() & {main, *(s.companion for s in used)}
                  if train[name].objective == "flow_matching")
    if flow and top / (1.0 + top) >= 1.0:
        raise ConfigError(f"schedule.sigma_max {top:g} is too large for flow-matching model "
                          f"{flow[0]!r}: its flow time sigma_max/(1 + sigma_max) rounds to 1")
    # the Bayes classifier of classifier guidance conditions on a label of the task mixture
    labels = sorted(set(specs["base"].labels.tolist()))
    for spec in (s for s in used if s.kind == "classifier"):
        if spec.classifier_class not in labels:
            raise ConfigError(f"classifier_class {spec.classifier_class} is not a label of the "
                              f"{task} task; its labels are {labels}")
    dim = specs["base"].dim
    if "field" in cfg["eval"] and dim != 2:
        raise ConfigError(f"eval.field needs a 2-d task mixture; the {task} task is {dim}-d")
    if "cfg" in {s.kind for s in used} and not models.get(main, {}).get("conditional", False):
        raise ConfigError(f"cfg needs a conditional main model (got {main!r})")
    return Run(cfg, specs, train, schedule, guidance, sweep, tag)


# The Draft 2020-12 keywords _violations implements: exactly those SCHEMA uses.
KEYWORDS = frozenset({"type", "enum", "const", "properties", "required", "additionalProperties",
                      "minProperties", "items", "minItems", "maxItems", "minimum", "exclusiveMinimum",
                      "anyOf"})
# JSON integers only: an integral float such as 7.0 is not an integer, and a
# bool is neither an integer nor a number
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _equal(a, b) -> bool:
    """JSON equality for enum and const: true is not 1."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _violations(value, schema: dict, path: tuple):
    """Yield (path, message) for each keyword of schema that value breaks,
    descending into properties, additionalProperties, items and anyOf."""
    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_TYPES[t](value) for t in names):
            yield path, f"{value!r} is not of type {', '.join(map(repr, names))}"
    if "enum" in schema and not any(_equal(value, e) for e in schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and not _equal(value, schema["const"]):
        yield path, f"{schema['const']!r} was expected"
    if "anyOf" in schema and not any(next(_violations(value, s, path), None) is None
                                     for s in schema["anyOf"]):
        yield path, f"{value!r} is not valid under any of the given schemas"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        if "minProperties" in schema and len(value) < schema["minProperties"]:
            yield path, f"{value!r} has fewer than {schema['minProperties']} properties"
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                yield from _violations(item, props[key], (*path, key))
            elif extra is False:
                yield path, f"additional property {key!r} is not allowed"
            elif extra is not True:
                yield from _violations(item, extra, (*path, key))
    elif isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            yield path, f"{value!r} has fewer than {schema['minItems']} items"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield path, f"{value!r} has more than {schema['maxItems']} items"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _violations(item, schema["items"], (*path, i))
    elif _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            yield path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield path, f"{value!r} is not above the exclusive minimum of {schema['exclusiveMinimum']!r}"


def validate_config(raw: dict) -> Run:
    """Schema check, defaults, then the run builder; returns the Run. A
    schema violation names the shallowest path that breaks SCHEMA."""
    found = min(_violations(raw, SCHEMA, ()), key=lambda v: len(v[0]), default=None)
    if found is not None:
        raise ConfigError(f"config schema violation at {list(found[0])}: {found[1]}")
    return _build_run(_deep_merge(DEFAULTS, raw))


_ENV = {"seed": "SFGLAB_SEED", "out": "SFGLAB_OUT", "threads": "SFGLAB_THREADS"}


def _env_int(var: str) -> int:
    try:
        return int(os.environ[var])
    except ValueError:
        raise ConfigError(f"{var} must be an integer, got {os.environ[var]!r}") from None


def _not_a_number(constant: str):
    raise ConfigError(f"config is not valid JSON: {constant} is not a JSON number")


def _number_reader(parse):
    """parse for JSON number literals, rejecting one beyond the float range:
    float() rounds 1e400 to inf, and an integer that no float can hold
    fails wherever it meets a float."""
    def read(literal: str):
        try:
            value = parse(literal)
            if math.isfinite(value):
                return value
        except (ValueError, OverflowError):  # too many digits, or too large for a float
            pass
        shown = literal if len(literal) <= 24 else f"{literal[:20]}..."
        raise ConfigError(f"config number {shown} overflows a float")
    return read


def load_config(path, overrides=None) -> Run:
    """Read, override and validate a run config. The SFGLAB_SEED/SFGLAB_OUT/
    SFGLAB_THREADS environment variables override the file, and the non-None
    entries of overrides (seed/out/threads, the CLI flags) override both;
    the result is validated like the file itself into a Run."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_not_a_number, parse_float=_number_reader(float),
                            parse_int=_number_reader(int))
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
