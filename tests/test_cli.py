import copy
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jsonschema import Draft202012Validator

from sfglab import __version__, cli, config, evaluation
from sfglab.cli import main
from sfglab.config import (KEYWORDS, SCHEMA, ConfigError, _deep_merge, config_hash, load_config,
                           sweep_points, validate_config)
from sfglab.datasets import LabeledPointSet, sample_gmm
from sfglab.guidance import GuidanceSpec
from sfglab.model import ScoreModel, TrainConfig, TrainingDiverged, load_checkpoint, save_checkpoint
from sfglab.sampler import GuidedProvider, sample


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def fractal_config(out, tiny=True):
    return {
        "task": "fractal",
        "seed": 3,
        "out": str(out),
        "data": {"n_train": 300, "fractal": {"depth": 4, "branch_angle": 0.6283,
                                             "shrink_ratio": 0.75, "jitter_sigma": 0.01}},
        "models": {
            "main": {"hidden": [16], "conditional": True,
                     "train": {"batches": 30, "warmup_batches": 5, "batch_size": 32}},
        },
        "train": {"batches": 30, "batch_size": 32, "warmup_batches": 5, "lr": 1e-3},
        "schedule": {"kind": "sigma", "n_steps": 8, "sigma_min": 0.02, "sigma_max": 5.0},
        "sample": {"n_samples": 12, "class_id": "random", "chunk_size": 8},
        "guidance": [{"kind": "sfg", "weight": 1.0}],
        "eval": {},
    }


def simplex_config(out):
    return {
        "task": "simplex", "seed": 1, "out": str(out),
        "data": {"n_train": 50, "n_test": 20,
                 "simplex": {"n_components": 3, "ambient_dim": 4, "scale": 0.2}},
        "models": {"main": {"hidden": [8]}},
    }


def two_gaussian_config(out):
    return {
        "task": "two_gaussian", "seed": 1, "out": str(out),
        "data": {"n_train": 50, "two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
        "eval": {},
    }


EXAMPLES = sorted((Path(__file__).parent.parent / "examples_config").glob("*.json"))

# values that the config loader rejects, with the command that consumes
# them: (base config, change, command)
REJECTED_VALUES = {
    "sample_model_not_a_model": (fractal_config, {"sample": {"model": "nope"}}, "sample"),
    "field_on_a_3d_task": (two_gaussian_config, {"data": {"two_gaussian": {"ambient_dim": 3}},
                                                  "eval": {"field": {"grid_n": 5}}}, "eval"),
    "train_batches_below_warmup": (fractal_config, {"models": {"main": {"train": {"batches": 4}}}}, "train"),
    "train_sigma_min_above_max": (fractal_config, {"train": {"sigma_min": 6.0, "sigma_max": 5.0}}, "train"),
    "schedule_sigma_min_above_max": (fractal_config, {"schedule": {"sigma_min": 6.0, "sigma_max": 5.0}},
                                     "sample"),
    "schedule_rho_overflows": (fractal_config, {"schedule": {"rho": 0.001}}, "sample"),
    "class_id_text": (fractal_config, {"sample": {"class_id": "abc"}}, "sample"),
    "simplex_components_above_dim": (simplex_config, {"data": {"simplex": {"n_components": 5}}}, "gen-data"),
    "fractal_trunk_with_two_classes": (fractal_config, {"data": {"fractal": {"depth": 1, "n_classes": 2}}},
                                       "gen-data"),
    "integral_float_seed": (fractal_config, {"seed": 3.0}, "gen-data"),
    "fractal_zero_jitter": (fractal_config, {"data": {"fractal": {"jitter_sigma": 0.0}}}, "gen-data"),
    # sigma_max / (1 + sigma_max) rounds to 1, a pole of the flow-to-eps conversion
    "flow_model_at_huge_sigma_max": (fractal_config, {"train": {"objective": "flow_matching"},
                                                      "schedule": {"sigma_max": 1e17}}, "sample"),
    "outlier_threshold_zero": (fractal_config, {"eval": {"outlier_threshold": 0}}, "eval"),
    "outlier_threshold_negative": (fractal_config, {"eval": {"outlier_threshold": -1}}, "eval"),
    "eval_sigmas_empty": (simplex_config, {"eval": {"sigmas": []}}, "eval"),
}

# overrides validated like the file: (environment, flags)
REJECTED_OVERRIDES = {
    "env_threads_not_integer": ({"SFGLAB_THREADS": "abc"}, []),
    "env_seed_negative": ({"SFGLAB_SEED": "-1"}, []),
    "flag_seed_negative": ({}, ["--seed", "-1"]),
    "flag_threads_zero": ({}, ["--threads", "0"]),
}


# guidance that the schema, stack or spec rules reject; applied on top of a
# fractal config with a companion model 'bad' and a valid sfg sweep
REJECTED_GUIDANCE = {
    "sfg_before_autoguidance": {"guidance": [{"kind": "sfg", "weight": 1.0},
                                             {"kind": "autoguidance", "weight": 2.0, "companion": "bad"}]},
    "two_sfg": {"guidance": [{"kind": "sfg", "weight": 1.0}, {"kind": "sfg", "weight": 2.0}]},
    "negative_sfg_weight": {"guidance": [{"kind": "sfg", "weight": -1.0}]},
    "autoguidance_sweep_below_one": {"sweep": {"kind": "autoguidance", "companion": "bad",
                                               "weights": [0.5]}},
    "sweep_without_weights": {"sweep": {"kind": "sfg", "weights": []}},
    "alphas_on_autoguidance_sweep": {"sweep": {"kind": "autoguidance", "companion": "bad", "weights": [2.0],
                                               "alphas": [1.0, 2.0], "h_values": [0.05, 0.1]}},
    # a field the kind never reads: the companion would be loaded for nothing
    "companion_on_sfg": {"guidance": [{"kind": "sfg", "weight": 1.0, "companion": "bad"}]},
    "classifier_class_on_sfg": {"guidance": [{"kind": "sfg", "weight": 1.0, "classifier_class": 0}]},
}


def schema_keywords(schema):
    """Every keyword of schema and of the sub-schemas it holds."""
    yield from schema
    subs = [*schema.get("properties", {}).values(), *schema.get("anyOf", ())]
    subs += [schema[k] for k in ("additionalProperties", "items") if isinstance(schema.get(k), dict)]
    for sub in subs:
        yield from schema_keywords(sub)


# (config change, the path the checker names), at least one per keyword it implements
SCHEMA_VIOLATIONS = {
    "type_integral_float": ({"seed": 7.0}, ["seed"]),
    "type_bool_not_integer": ({"seed": True}, ["seed"]),
    "type_bool_not_number": ({"data": {"simplex": {"scale": True}}}, ["data", "simplex", "scale"]),
    "type_list": ({"sweep": {"kind": "sfg", "weights": [1.0], "alphas": "x"}}, ["sweep", "alphas"]),
    "enum": ({"task": "nope"}, ["task"]),
    "anyOf_const": ({"sample": {"class_id": "Random"}}, ["sample", "class_id"]),
    "required": ({"data": {"two_gaussian": {"separation": 4.0}}}, ["data", "two_gaussian"]),
    "additionalProperties_false": ({"bogus": 1}, []),
    "additionalProperties_schema": ({"models": {"extra": {"hidden": 8}}}, ["models", "extra", "hidden"]),
    "minProperties": ({"models": {}}, ["models"]),
    "items": ({"models": {"main": {"hidden": [8, 0]}}}, ["models", "main", "hidden", 1]),
    "minItems": ({"models": {"main": {"hidden": []}}}, ["models", "main", "hidden"]),
    "minItems_eval_sigmas": ({"eval": {"sigmas": []}}, ["eval", "sigmas"]),
    "maxItems": ({"guidance": [{"kind": "none", "interval": [0, 1, 2]}]}, ["guidance", 0, "interval"]),
    "minimum": ({"threads": 0}, ["threads"]),
    "exclusiveMinimum": ({"schedule": {"rho": 0}}, ["schedule", "rho"]),
}


class TestConfigValidation:
    def test_schema_is_valid_draft_2020_12(self):
        Draft202012Validator.check_schema(SCHEMA)

    def test_checker_implements_exactly_the_schema_keywords(self):
        assert set(schema_keywords(SCHEMA)) - {"$schema"} == KEYWORDS
        edited = copy.deepcopy(SCHEMA)  # a keyword added deep down is seen
        edited["properties"]["models"]["additionalProperties"]["properties"]["hidden"]["items"]["maximum"] = 9
        assert "maximum" in set(schema_keywords(edited))

    @pytest.mark.parametrize("change, path", SCHEMA_VIOLATIONS.values(), ids=SCHEMA_VIOLATIONS.keys())
    def test_schema_violation_names_the_path(self, change, path):
        cfg = _deep_merge({"task": "simplex", "seed": 1,
                           "data": {"simplex": {"n_components": 3, "ambient_dim": 4, "scale": 0.2}}}, change)
        with pytest.raises(ConfigError, match=re.escape(f"config schema violation at {path}: ")):
            validate_config(cfg)

    def test_cli_import_leaves_jsonschema_out(self):
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, sfglab.cli; assert 'jsonschema' not in sys.modules, 'jsonschema imported'"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_sweep_metrics_are_the_metric_table(self):
        assert SCHEMA["properties"]["sweep"]["properties"]["metrics"]["items"]["enum"] == \
            list(evaluation.METRICS)

    def test_guidance_schema_keys_are_the_spec_fields(self):
        keys = SCHEMA["properties"]["guidance"]["items"]["properties"]
        assert set(keys) == {f.name for f in dataclasses.fields(GuidanceSpec)}

    def test_train_defaults_are_the_train_config_defaults(self, tmp_path):
        # a model without train settings trains with TrainConfig's defaults, its seed aside
        tc = validate_config(simplex_config(tmp_path / "out")).train["main"]
        assert tc == TrainConfig(seed=tc.seed)
        assert (tc.batches, tc.warmup_batches) == (3000, 100)

    def test_schema_violation(self):
        with pytest.raises(ConfigError, match="schema"):
            validate_config({"task": "simplex", "seed": -1})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="schema"):
            validate_config({"task": "simplex", "seed": 0, "bogus": 1})

    def test_missing_task_data(self):
        with pytest.raises(ConfigError, match="data.fractal"):
            validate_config({"task": "fractal", "seed": 0})

    def test_companion_must_exist(self):
        cfg = {
            "task": "two_gaussian", "seed": 0,
            "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
            "models": {"main": {"hidden": [8]}},
            "guidance": [{"kind": "autoguidance", "weight": 2.0, "companion": "ghost"}],
        }
        with pytest.raises(ConfigError, match="companion 'ghost'"):
            validate_config(cfg)

    def test_cfg_requires_conditional_main(self):
        cfg = {
            "task": "two_gaussian", "seed": 0,
            "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
            "models": {"main": {"hidden": [8]}, "u": {"hidden": [8]}},
            "guidance": [{"kind": "cfg", "weight": 2.0, "companion": "u"}],
        }
        with pytest.raises(ConfigError, match="conditional"):
            validate_config(cfg)

    def test_classifier_guidance_runs_on_fractal(self, tmp_path):
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["guidance"] = [{"kind": "classifier", "weight": 1.0, "classifier_class": 1}]
        path = write_config(tmp_path, cfg)
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=1), out / "main.ckpt")
        assert main(["sample", "--config", path]) == 0
        samples = LabeledPointSet.from_csv(out / "samples_classifier.csv")
        assert len(samples) == 12 and np.isfinite(samples.points).all()

    def test_sweep_points_in_run_order(self):
        def points(guidance=(), **sweep):
            return sweep_points({"guidance": list(guidance), "sweep": sweep})

        grid = points(kind="sfg", weights=[0, 2], alphas=[1, 2.5], h_values=[0.05])
        assert grid == [({"weight": w, "alpha": a, "h": 0.05},
                         [GuidanceSpec(kind="sfg", weight=w, alpha0=a, h=0.05)])
                        for w in (0.0, 2.0) for a in (1.0, 2.5)]
        assert [list(row) for row, _ in grid] == [["weight", "alpha", "h"]] * 4  # sweep.csv columns
        assert points(kind="sfg", weights=[1.5], h_values=[0.2]) == [
            ({"weight": 1.5, "h": 0.2}, [GuidanceSpec(kind="sfg", weight=1.5, h=0.2)])]
        assert points(kind="cfg", companion="u", interval=[0.1, 0.8], weights=[3]) == [
            ({"weight": 3.0}, [GuidanceSpec(kind="cfg", weight=3.0, companion="u", interval=(0.1, 0.8))])]

    def test_classifier_sweep_takes_the_run_classifier_class(self):
        cfg = validate_config({
            "task": "two_gaussian", "seed": 0,
            "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
            "models": {"main": {"hidden": [8]}, "bad": {"hidden": [8]}},
            "guidance": [{"kind": "autoguidance", "weight": 2.0, "companion": "bad"},
                         {"kind": "classifier", "weight": 1.0, "classifier_class": 1}],
            "sweep": {"kind": "classifier", "weights": [0.0, 2.0]},
        }).cfg
        assert [s.classifier_class for _, stack in sweep_points(cfg) for s in stack] == [1, 1]
        cfg["guidance"] = cfg["guidance"][:1]  # no classifier spec: class 0
        assert [s.classifier_class for _, stack in sweep_points(cfg) for s in stack] == [0, 0]

    @pytest.mark.parametrize("sweep", [None, {"kind": "classifier", "weights": [0.0, 2.0]}],
                             ids=["guidance", "guidance_and_sweep"])
    def test_classifier_class_must_be_a_task_label(self, tmp_path, capsys, sweep):
        cfg = fractal_config(tmp_path / "out")
        cfg["guidance"] = [{"kind": "classifier", "weight": 1.0, "classifier_class": 5}]
        if sweep:
            cfg["sweep"] = sweep
        message = "classifier_class 5 is not a label of the fractal task; its labels are [0, 1]"
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(cfg)
        path = write_config(tmp_path, cfg)
        for command in ("sample", "sweep"):
            assert main([command, "--config", path]) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["guidance", "sweep"])
    def test_interval_cfg_is_not_a_kind(self, tmp_path, capsys, section):
        # interval CFG is spelled as cfg with an interval
        cfg = fractal_config(tmp_path / "out")
        cfg["models"]["u"] = {"hidden": [8]}
        spec = {"kind": "interval_cfg", "companion": "u", "interval": [0.1, 0.8]}
        if section == "guidance":
            cfg["guidance"], where = [{**spec, "weight": 3.0}], "['guidance', 0, 'kind']"
        else:
            cfg["sweep"], where = {**spec, "weights": [3.0]}, "['sweep', 'kind']"
        assert main(["sample", "--config", write_config(tmp_path, cfg)]) == 2
        assert f"config schema violation at {where}: 'interval_cfg' is not one of" in capsys.readouterr().err

    @pytest.mark.parametrize("tag", ["a/b", "../up", "a\\b", "a\0b"], ids=["slash", "parent", "backslash", "nul"])
    def test_tag_must_be_a_file_name_piece(self, tmp_path, capsys, tag):
        cfg = fractal_config(tmp_path / "out")
        cfg["sample"]["tag"] = tag
        assert main(["sample", "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: sample.tag" in capsys.readouterr().err
        cfg["sample"]["tag"] = "run.2-a_b"
        assert validate_config(cfg).cfg["sample"]["tag"] == "run.2-a_b"

    @pytest.mark.parametrize("change", REJECTED_GUIDANCE.values(), ids=REJECTED_GUIDANCE.keys())
    def test_guidance_rejected_at_load(self, tmp_path, capsys, change):
        cfg = fractal_config(tmp_path / "out")
        cfg["models"]["bad"] = {"hidden": [8], "conditional": True}
        cfg["sweep"] = {"kind": "sfg", "weights": [1.0]}
        cfg.update(change)
        with pytest.raises(ConfigError):
            validate_config(cfg)
        path = write_config(tmp_path, cfg)
        for command in ("sample", "sweep"):
            assert main([command, "--config", path]) == 2
            assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("base, change, command", REJECTED_VALUES.values(), ids=REJECTED_VALUES.keys())
    def test_value_rejected_at_load(self, tmp_path, capsys, base, change, command):
        cfg = _deep_merge(base(tmp_path / "out"), change)
        with pytest.raises(ConfigError):
            validate_config(cfg)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["sigma", "flow_time"])
    def test_flow_model_at_a_huge_sigma_max_names_the_model(self, tmp_path, capsys, kind):
        # sample and sweep evaluate sample.model and the companions, each at flow
        # time sigma / (1 + sigma) when it is a flow-matching model, on either kind
        cfg = _deep_merge(fractal_config(tmp_path / "out"), {"schedule": {"kind": kind, "sigma_max": 1e17}})
        cfg["models"]["bad"] = {"hidden": [8], "conditional": True, "train": {"objective": "flow_matching"}}
        assert validate_config(cfg).schedule.sigmas[0] == 1e17  # no command evaluates 'bad'
        cfg["sweep"] = {"kind": "autoguidance", "companion": "bad", "weights": [2.0]}
        path = write_config(tmp_path, cfg)
        for command in ("sample", "sweep"):
            assert main([command, "--config", path]) == 2
            err = capsys.readouterr().err
            assert "schedule.sigma_max 1e+17 is too large for flow-matching model 'bad'" in err
        cfg["schedule"]["sigma_max"] = 1e15  # t = 1 - 1e-15 stays below 1
        assert validate_config(cfg).sweep[0][1][0].companion == "bad"

    def test_schedule_kind_picks_the_solver_over_one_sigma_grid(self, tmp_path):
        schedules = {kind: validate_config(_deep_merge(two_gaussian_config(tmp_path / "out"), {
            "schedule": {"kind": kind, "n_steps": 40, "sigma_min": 0.002, "sigma_max": 10.0, "rho": 7.0}
        })).schedule for kind in ("sigma", "flow_time")}
        assert (schedules["sigma"].solver, schedules["flow_time"].solver) == ("heun", "euler")
        assert np.array_equal(schedules["sigma"].sigmas, schedules["flow_time"].sigmas)

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_example_config_loads(self, path):
        cfg = load_config(path).cfg
        assert cfg["task"] in cfg["data"]

    def test_hash_stable_under_key_order(self):
        a = validate_config({"task": "simplex", "seed": 1,
                             "data": {"simplex": {"n_components": 2, "ambient_dim": 4, "scale": 0.2}}})
        b = validate_config({"seed": 1, "task": "simplex",
                             "data": {"simplex": {"scale": 0.2, "ambient_dim": 4, "n_components": 2}}})
        assert config_hash(a.cfg) == config_hash(b.cfg)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"task": "nope", "seed": 0})
        assert main(["gen-data", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_nan_is_not_json(self, tmp_path, capsys):
        cfg = _deep_merge(simplex_config(tmp_path / "out"), {"data": {"simplex": {"scale": float("nan")}}})
        assert main(["gen-data", "--config", write_config(tmp_path, cfg)]) == 2
        assert "NaN is not a JSON number" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400, "9" * 5000],
                             ids=["1e400", "-1e400", "int_1e400", "int_5000_digits"])
    @pytest.mark.parametrize("task, path", [
        ("fractal", ("guidance", 0, "weight")),
        ("two_gaussian", ("data", "two_gaussian", "base_variance")),
        ("fractal", ("train", "lr")),
        ("fractal", ("eval", "outlier_threshold")),
    ], ids=["guidance_weight", "base_variance", "train_lr", "outlier_threshold"])
    def test_overflowing_number_is_2(self, tmp_path, capsys, task, path, literal):
        # float() reads 1e400 as inf, which JSON has no number for; no float
        # holds 10**400, and int() refuses 5000 digits
        cfg = fractal_config(tmp_path / "out")
        if task == "two_gaussian":
            cfg = {"task": task, "seed": 0, "out": str(tmp_path / "out"),
                   "data": {task: {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}}}
        *parents, key = path
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = "PLACEHOLDER"
        path_file = tmp_path / "cfg.json"
        path_file.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', literal))
        assert main(["gen-data", "--config", str(path_file)]) == 2
        err = capsys.readouterr().err
        assert f"config number {literal[:20]}" in err and "overflows a float" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("env, flags", REJECTED_OVERRIDES.values(), ids=REJECTED_OVERRIDES.keys())
    def test_rejected_override_is_2(self, tmp_path, capsys, monkeypatch, env, flags):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        path = write_config(tmp_path, fractal_config(tmp_path / "out"))
        assert main(["gen-data", "--config", path, *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    def test_class_id_the_model_lacks_is_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["sample"]["class_id"] = 7
        cfg["sweep"] = {"kind": "sfg", "weights": [1.0]}
        path = write_config(tmp_path, cfg)
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=1), out / "main.ckpt")
        assert main([command, "--config", path]) == 2
        assert "sample.class_id 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "sweep"])
    def test_class_id_on_an_unconditional_model_is_2(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["models"]["main"]["conditional"] = False
        cfg["sample"]["class_id"] = 1
        cfg["sweep"] = {"kind": "sfg", "weights": [1.0]}
        path = write_config(tmp_path, cfg)
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], seed=1), out / "main.ckpt")
        assert main([command, "--config", path]) == 2
        assert "sample.class_id 1 is not a class of model 'main', which is unconditional" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("class_id", [None, -1])
    def test_unconditional_ids_on_an_unconditional_model(self, tmp_path, class_id):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["sample"]["class_id"] = class_id
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], seed=1), out / "main.ckpt")
        assert main(["sample", "--config", write_config(tmp_path, cfg)]) == 0
        assert not LabeledPointSet.from_csv(out / "samples_sfg.csv").labels.any()

    def test_fewer_samples_than_dimensions_run(self, tmp_path):
        # the simplex here is 4-d: 3 samples have a rank-2 covariance, which the
        # Frechet distance to the exact moments takes
        out = tmp_path / "out"
        cfg = _deep_merge(simplex_config(out), {"sample": {"n_samples": 3},
                                                "eval": {"sigmas": [0.5], "n_per_region": 8}})
        validate_config(cfg)
        path = write_config(tmp_path, cfg)
        out.mkdir()
        save_checkpoint(ScoreModel(4, [8], seed=1), out / "main.ckpt")
        for command in ("sample", "eval"):
            assert main([command, "--config", path]) == 0
        assert np.isfinite(json.loads((out / "eval_report.json").read_text())["frechet"])

    def test_too_few_finite_samples_is_3(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["sweep"] = {"kind": "sfg", "weights": [1.0], "metrics": ["frechet"]}
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        real_sample = cli.sample

        def one_finite(*args, **kwargs):  # failed trajectories leave 1 sample
            trajs = real_sample(*args, **kwargs)
            trajs.failed[1:] = True
            return trajs

        monkeypatch.setattr(cli, "sample", one_finite)
        assert main(["sample", "--config", path]) == 0
        for command in ("eval", "sweep"):
            assert main([command, "--config", path]) == 3
            assert "metric frechet: a sample covariance needs at least 2 samples, got 1" in \
                capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_metric_is_3(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["sweep"] = {"kind": "sfg", "weights": [1.0], "metrics": ["frechet"]}
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        real_sample = cli.sample

        def huge(*args, **kwargs):  # finite points whose covariance overflows
            trajs = real_sample(*args, **kwargs)
            trajs.points *= 1e160
            return trajs

        monkeypatch.setattr(cli, "sample", huge)
        assert main(["sample", "--config", path]) == 0
        # eval's first metric, outlier_rate, meets quadratic forms that overflow to
        # inf - inf = nan; the sweep asks for frechet only
        for command, metric in (("eval", "outlier_rate"), ("sweep", "frechet")):
            assert main([command, "--config", path]) == 3
            err = capsys.readouterr().err
            assert f"metric {metric} is" in err and "not a finite number" in err
        assert not (out / "eval_report.json").exists()
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("n_rows, message", [
        (0, "metric outlier_rate: empty sample set"),  # eval's first metric
        (1, "metric frechet: a sample covariance needs at least 2 samples, got 1"),
    ], ids=["0", "1"])
    def test_samples_file_too_small_for_frechet_is_3(self, tmp_path, capsys, n_rows, message):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["eval"]["samples_file"] = "few.csv"
        out.mkdir()
        LabeledPointSet(np.zeros((n_rows, 2)), np.zeros(n_rows, dtype=int)).to_csv(out / "few.csv")
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_samples_without_a_nearest_mode_is_3(self, tmp_path, capsys):
        # finite samples so large that every distance to a mode overflows
        out = tmp_path / "out"
        cfg = {"task": "two_gaussian", "seed": 1, "out": str(out),
               "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
               "eval": {"samples_file": "huge.csv"}}
        out.mkdir()
        points = np.random.default_rng(2).standard_normal((50, 2)) * 1e160
        LabeledPointSet(points, np.zeros(50, dtype=int)).to_csv(out / "huge.csv")
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 3
        assert "metric coverage_entropy is nan, not a finite number" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("snapshot", [True, False])
    def test_training_divergence_is_3(self, tmp_path, capsys, monkeypatch, snapshot):
        out = tmp_path / "out"
        path = write_config(tmp_path, fractal_config(out))
        assert main(["gen-data", "--config", path]) == 0
        last_good = ScoreModel(2, [16], n_classes=2, seed=1) if snapshot else None

        def diverge(*args, **kwargs):
            raise TrainingDiverged(17, float("inf"), last_good)

        monkeypatch.setattr(cli, "train", diverge)
        assert main(["train", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "training 'main' diverged at batch 17" in err
        # the message names the snapshot file only when there was one to write
        assert ("last good checkpoint saved to main_lastgood.ckpt" in err) == snapshot
        assert ("no good checkpoint to save" in err) != snapshot
        assert (out / "main_lastgood.ckpt").exists() == snapshot
        assert not (out / "main.ckpt").exists()

    def test_diverging_training_prints_one_line(self, tmp_path):
        # numpy's overflow warnings stay quiet: the loss guard owns divergence
        path = write_config(tmp_path, _deep_merge(fractal_config(tmp_path / "out"), {"train": {"lr": 1e300}}))
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        assert main(["gen-data", "--config", path]) == 0
        proc = subprocess.run([sys.executable, "-m", "sfglab.cli", "train", "--config", path],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == ("numeric failure: training 'main' diverged at batch 1 (loss nan); "
                               "no good checkpoint to save\n")

    def test_a_last_update_beyond_float32_saves_no_checkpoint(self, tmp_path):
        # one batch at lr 1e300: its loss is finite, the update it makes is not
        # storable in a float32 checkpoint
        out = tmp_path / "out"
        change = {"train": {"lr": 1e300},
                  "models": {"main": {"train": {"batches": 1, "warmup_batches": 1}}}}
        path = write_config(tmp_path, _deep_merge(fractal_config(out), change))
        src = str(Path(__file__).parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        assert main(["gen-data", "--config", path]) == 0
        proc = subprocess.run([sys.executable, "-m", "sfglab.cli", "train", "--config", path],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert not (out / "main.ckpt").exists()
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: ")

    def test_missing_samples_file_is_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["eval"]["samples_file"] = "nope.csv"
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 4
        assert f"samples file {out / 'nope.csv'} not found" in capsys.readouterr().err

    def test_missing_config_is_4(self, capsys):
        assert main(["train", "--config", "/definitely/not/here.json"]) == 4

    def test_train_without_models_section_is_2_before_gen_data(self, tmp_path, capsys):
        # the config error comes first: no dataset is looked for, none is needed
        path = write_config(tmp_path, two_gaussian_config(tmp_path / "out"))
        assert main(["train", "--config", path]) == 2
        assert "train needs a models section" in capsys.readouterr().err

    def test_missing_dataset_is_4(self, tmp_path, capsys):
        cfg = fractal_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 4
        assert "gen-data first" in capsys.readouterr().err

    @pytest.mark.parametrize("label", [999, -3])
    def test_label_outside_the_task_is_4(self, tmp_path, capsys, label):
        # a label the task mixture lacks would train classes without data
        # (999) or, when negative, the null class (-3)
        out = tmp_path / "out"
        path = write_config(tmp_path, fractal_config(out))
        assert main(["gen-data", "--config", path]) == 0
        train_csv = out / "train.csv"
        data = LabeledPointSet.from_csv(train_csv)
        data.labels[5] = label
        data.to_csv(train_csv)
        assert main(["train", "--config", path]) == 4
        assert (f"{train_csv}: label {label} is not a label of the fractal task; its labels are [0, 1]"
                in capsys.readouterr().err)
        assert not (out / "main.ckpt").exists()

    def test_missing_checkpoint_is_4(self, tmp_path):
        cfg = fractal_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["sample", "--config", path]) == 4

    @pytest.mark.parametrize("task, command", [("two_gaussian", "sample"), ("fractal", "sample"),
                                               ("simplex", "eval")])
    def test_checkpoint_of_another_dimension_is_4(self, tmp_path, capsys, task, command):
        out = tmp_path / "out"
        configs = {"fractal": fractal_config, "simplex": simplex_config, "two_gaussian": two_gaussian_config}
        cfg = configs[task](out)
        task_dim = validate_config(cfg).specs["base"].dim
        out.mkdir()
        save_checkpoint(ScoreModel(3, [8], seed=0), out / "main.ckpt")
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 4
        assert f"{out / 'main.ckpt'} holds 3-d data, but the task is {task_dim}-d" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["main.ckpt"]

    def test_dataset_of_another_dimension_is_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, fractal_config(out))
        assert main(["gen-data", "--config", path]) == 0
        train_csv = out / "train.csv"
        data = LabeledPointSet.from_csv(train_csv)
        LabeledPointSet(np.c_[data.points, data.points[:, :1]], data.labels).to_csv(train_csv)
        assert main(["train", "--config", path]) == 4
        assert f"{train_csv} holds 3-d data, but the task is 2-d" in capsys.readouterr().err
        assert not (out / "main.ckpt").exists()

    def test_samples_file_of_another_dimension_is_4(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _deep_merge(two_gaussian_config(out), {"eval": {"samples_file": "wide.csv"}})
        out.mkdir()
        LabeledPointSet(np.zeros((50, 3)), np.zeros(50, dtype=int)).to_csv(out / "wide.csv")
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 4
        assert f"{out / 'wide.csv'} holds 3-d data, but the task is 2-d" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    def test_bad_json_is_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert main(["gen-data", "--config", str(p)]) == 2

    @pytest.mark.parametrize("artifact, command, corrupt", [
        ("main.ckpt", "sample", lambda b: b[:300]),
        ("main.ckpt", "sample", lambda b: b"NOPE" + b[4:]),
        ("train.csv", "train", lambda b: b.replace(b",", b",abc,", 1)),
        ("train.csv", "train", lambda b: b[:b.index(b"\n") + 1]),
    ], ids=["checkpoint_cut_to_300_bytes", "checkpoint_bad_magic", "csv_non_numeric_cell", "csv_header_only"])
    def test_corrupt_artifact_is_4(self, tmp_path, capsys, artifact, command, corrupt):
        out = tmp_path / "out"
        path = write_config(tmp_path, fractal_config(out))
        assert main(["gen-data", "--config", path]) == 0
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=1), out / "main.ckpt")
        target = out / artifact
        target.write_bytes(corrupt(target.read_bytes()))
        assert main([command, "--config", path]) == 4
        assert str(target) in capsys.readouterr().err

    @pytest.mark.parametrize("body", ['{"command": "sample", "extra": {"sfg_st', "[1, 2]",
                                      '{"extra": 3}', None],
                             ids=["truncated", "not_an_object", "extra_not_an_object", "directory"])
    def test_malformed_sample_manifest_is_4(self, tmp_path, capsys, body):
        out = tmp_path / "out"
        cfg = {"task": "two_gaussian", "seed": 1, "out": str(out),
               "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
               "eval": {"samples_file": "samples_x.csv"}}
        out.mkdir()
        points = np.random.default_rng(2).standard_normal((50, 2))
        LabeledPointSet(points, np.zeros(50, dtype=int)).to_csv(out / "samples_x.csv")
        manifest = out / "sample_manifest_x.json"
        if body is None:
            manifest.mkdir()
        else:
            manifest.write_text(body)
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 4
        assert f"unreadable sample manifest {manifest}" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    @pytest.mark.parametrize("beside", [False, True], ids=["no_manifest_beside", "manifest_beside"])
    def test_eval_reads_the_manifest_beside_an_absolute_samples_file(self, tmp_path, beside):
        # out/ holds a decoy manifest with the samples file's stem; only a
        # manifest in the samples file's own directory belongs to it
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        cfg = {"task": "two_gaussian", "seed": 1, "out": str(out),
               "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
               "eval": {"samples_file": str(elsewhere / "samples_x.csv")}}
        points = np.random.default_rng(2).standard_normal((50, 2))
        LabeledPointSet(points, np.zeros(50, dtype=int)).to_csv(elsewhere / "samples_x.csv")
        (out / "sample_manifest_x.json").write_text('{"extra": {"sfg_stats": {"decoy": 1.0}}}')
        if beside:
            (elsewhere / "sample_manifest_x.json").write_text('{"extra": {"sfg_stats": {"own": 2.0}}}')
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["sfg_stats"] == ({"own": 2.0} if beside else None)

    @pytest.mark.parametrize("artifact, argv", [
        ("train.csv", ["train"]),
        ("main.ckpt", ["sample"]),
        ("dir.csv", ["eval"]),
        ("dir.csv", ["plot", "--kind", "scatter"]),
        ("dir.csv", ["plot", "--kind", "field"]),
        ("dir.csv", ["plot", "--kind", "sweep"]),
    ], ids=["train_csv", "checkpoint", "eval_samples_file", "plot_scatter", "plot_field", "plot_sweep"])
    def test_artifact_path_that_is_a_directory_is_4(self, tmp_path, capsys, artifact, argv):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["eval"]["samples_file"] = "dir.csv"
        out.mkdir()
        target = out / artifact
        target.mkdir()
        if argv[0] == "plot":
            argv = [*argv, "--inputs", str(target), "--out", str(tmp_path / "x.svg")]
        else:
            argv = [*argv, "--config", write_config(tmp_path, cfg)]
        assert main(argv) == 4
        assert str(target) in capsys.readouterr().err

    @pytest.mark.parametrize("kind, table", [
        ("sweep", "weight,frechet\n0,1.5\n1,abc\n"),
        ("sweep", "weight,frechet\n0,1.5\n1\n"),
        ("field", "x0,x1\n0,0\n1,1\n"),
    ], ids=["sweep_non_numeric_y_cell", "sweep_one_field_row", "field_without_score_columns"])
    def test_malformed_plot_table_is_4(self, tmp_path, capsys, kind, table):
        csv = tmp_path / "table.csv"
        csv.write_text(table)
        rc = main(["plot", "--kind", kind, "--inputs", str(csv), "--out", str(tmp_path / "x.svg")])
        assert rc == 4
        assert str(csv) in capsys.readouterr().err


class TestPipeline:
    def test_full_tiny_pipeline(self, tmp_path):
        out = tmp_path / "run"
        cfg = fractal_config(out)
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert (out / "train.csv").exists()
        assert main(["train", "--config", path]) == 0
        assert (out / "main.ckpt").exists()
        assert (out / "main_loss.csv").exists()
        assert main(["sample", "--config", path]) == 0
        assert (out / "samples_sfg.csv").exists()
        assert (out / "sfg_trace_sfg.csv").exists()
        assert main(["eval", "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert 0.0 <= report["outlier_rate"] <= 1.0
        assert report["sfg_stats"] is not None

    def test_sample_is_bytewise_identical_across_threads(self, tmp_path):
        # sfg start vectors, random class ids and start latents are drawn
        # once per run, before chunking, so no file depends on --threads
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["sample"].update(n_samples=50, chunk_size=8)
        path = write_config(tmp_path, cfg)
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=4), out / "main.ckpt")
        files = {}
        for threads in (1, 2, 4):
            assert main(["sample", "--config", path, "--threads", str(threads)]) == 0
            files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(files[1]) == ["main.ckpt", "sample_manifest_sfg.json", "samples_sfg.csv",
                                    "sfg_trace_sfg.csv"]
        assert files[1] == files[2] == files[4]

    def test_flow_time_sfg_trace_level_is_sigma(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, _deep_merge(fractal_config(out), {"schedule": {"kind": "flow_time"}}))
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=4), out / "main.ckpt")
        assert main(["sample", "--config", path]) == 0
        header, *rows = [line.split(",") for line in (out / "sfg_trace_sfg.csv").read_text().splitlines()]
        level = [float(row[header.index("level")]) for row in rows]
        # the table's cells carry 9 significant digits
        assert level == [float(f"{s:.9g}") for s in load_config(path).schedule.sigmas[:-1]]

    def test_flow_time_pipeline_is_bytewise_identical_across_threads(self, tmp_path):
        # a flow-matching model sampled over a flow-time schedule under
        # classifier guidance, in three chunks
        out = tmp_path / "run"
        cfg = _deep_merge(two_gaussian_config(out), {
            "models": {"main": {"hidden": [16]}},
            "train": {"batches": 30, "batch_size": 32, "warmup_batches": 5, "objective": "flow_matching"},
            "schedule": {"kind": "flow_time", "n_steps": 8, "sigma_min": 0.02, "sigma_max": 5.0},
            "sample": {"n_samples": 24, "chunk_size": 8},
            "guidance": [{"kind": "classifier", "weight": 2.0, "classifier_class": 0}],
            "sweep": {"kind": "classifier", "weights": [0.0, 2.0], "metrics": ["frechet"]},
        })
        path = write_config(tmp_path, cfg)
        files = {}
        for threads in (1, 2):
            shutil.rmtree(out, ignore_errors=True)
            for command in ("gen-data", "train", "sample", "sweep"):
                assert main([command, "--config", path, "--threads", str(threads)]) == 0
            files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert sorted(files[1]) == ["gen_data_manifest.json", "main.ckpt", "main_loss.csv",
                                    "sample_manifest_classifier.json", "samples_classifier.csv",
                                    "sweep.csv", "sweep_manifest.json", "train.csv", "train_manifest.json"]
        assert files[1] == files[2]
        # the command starts where sample() does, from latents scaled by the first sigma
        run = load_config(path)
        provider = GuidedProvider({"main": load_checkpoint(out / "main.ckpt")[0]}, run.guidance,
                                  gmm=run.specs["base"])
        want = sample(provider, run.schedule, 24, run.cfg["seed"]).points
        got = LabeledPointSet.from_csv(out / "samples_classifier.csv").points
        assert np.allclose(got, want, rtol=1e-8, atol=1e-8)

    def test_a_companion_named_main_is_main_ckpt(self, tmp_path):
        # sample.model "big" guided by a companion that is really named "main":
        # the companion is main.ckpt, not the sampled model under a second name
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["models"] = {"big": {"hidden": [16], "conditional": True},
                         "main": {"hidden": [8], "conditional": True},
                         "weak": {"hidden": [8], "conditional": True}}
        cfg["sample"]["model"] = "big"
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        shutil.copyfile(out / "main.ckpt", out / "weak.ckpt")
        samples, sweeps = {}, {}
        for companion in ("main", "weak", None):
            tag = companion or "unguided"
            guided = {"kind": "autoguidance", "companion": companion, "weight": 3.0}
            # the unguided run's sweep is autoguidance by the sampled model itself: no change
            run_cfg = {**cfg, "sample": {**cfg["sample"], "tag": tag},
                       "guidance": [guided if companion else {"kind": "none"}],
                       "sweep": {"kind": "autoguidance", "companion": companion or "big", "weights": [3.0]}}
            path = write_config(tmp_path, run_cfg, f"{tag}.json")
            assert main(["sample", "--config", path]) == 0
            samples[tag] = (out / f"samples_{tag}.csv").read_bytes()
            assert main(["sweep", "--config", path]) == 0
            sweeps[tag] = (out / "sweep.csv").read_bytes()
        assert samples["main"] == samples["weak"] != samples["unguided"]
        assert sweeps["main"] == sweeps["weak"] != sweeps["unguided"]

    def test_frechet_reference_n_is_deprecated_and_ignored(self, tmp_path):
        # a config that sets it writes the same report as one that does not,
        # and its manifest keeps the key
        reports, manifests = {}, {}
        for name, change in (("with_key", {"eval": {"frechet_reference_n": 64}}), ("without", {})):
            out = tmp_path / name
            path = write_config(tmp_path, _deep_merge(fractal_config(out), change), f"{name}.json")
            for command in ("gen-data", "train", "sample", "eval"):
                assert main([command, "--config", path]) == 0
            reports[name] = (out / "eval_report.json").read_bytes()
            manifests[name] = json.loads((out / "eval_manifest.json").read_text())["config"]["eval"]
        assert reports["with_key"] == reports["without"]
        assert manifests["with_key"]["frechet_reference_n"] == 64
        assert "frechet_reference_n" not in manifests["without"]

    def test_relative_out_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = fractal_config("run")
        cfg["sample"]["tag"] = "tagged"  # eval must find samples_tagged.csv, not samples_sfg.csv
        path = write_config(tmp_path, cfg)
        for command in ("gen-data", "train", "sample", "eval"):
            assert main([command, "--config", path]) == 0
        report = json.loads((tmp_path / "run" / "eval_report.json").read_text())
        assert report["outlier_rate"] is not None

    def test_gen_data_idempotent(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, fractal_config(out))
        assert main(["gen-data", "--config", path]) == 0
        first = (out / "train.csv").read_bytes()
        manifest1 = (out / "gen_data_manifest.json").read_bytes()
        assert main(["gen-data", "--config", path]) == 0
        assert (out / "train.csv").read_bytes() == first
        assert (out / "gen_data_manifest.json").read_bytes() == manifest1

    def test_seed_override_changes_data(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, fractal_config(out))
        assert main(["gen-data", "--config", path]) == 0
        first = (out / "train.csv").read_bytes()
        assert main(["gen-data", "--config", path, "--seed", "99"]) == 0
        assert (out / "train.csv").read_bytes() != first

    def test_env_override(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        path = write_config(tmp_path, fractal_config(out_a))
        monkeypatch.setenv("SFGLAB_OUT", str(out_b))
        assert main(["gen-data", "--config", path]) == 0
        assert (out_b / "train.csv").exists()
        assert not (out_a / "train.csv").exists()

    def test_thread_invariance_of_samples(self, tmp_path):
        out = tmp_path / "run"
        cfg = fractal_config(out)
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        assert main(["sample", "--config", path, "--threads", "1"]) == 0
        one = (out / "samples_sfg.csv").read_bytes()
        assert main(["sample", "--config", path, "--threads", "3"]) == 0
        assert (out / "samples_sfg.csv").read_bytes() == one

    def test_sfg_stats_leave_out_failed_trajectories(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        path = write_config(tmp_path, fractal_config(out))
        for command in ("gen-data", "train"):
            assert main([command, "--config", path]) == 0
        real_predict, real_sample, runs, inputs = ScoreModel.predict_eps, cli.sample, [], []

        def first_row_inf_late(self, x, sigma, class_ids=None):  # row 0 of each chunk fails late
            inputs.append(np.array(x, copy=True))
            eps = real_predict(self, x, sigma, class_ids)
            if np.max(sigma) < 0.5:
                eps[0] = np.inf
            return eps

        def recorded(*args, **kwargs):
            runs.append(real_sample(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(ScoreModel, "predict_eps", first_row_inf_late)
        monkeypatch.setattr(cli, "sample", recorded)
        with np.errstate(invalid="ignore", over="ignore"):
            assert main(["sample", "--config", path]) == 0
        sampled = list(inputs)
        assert main(["eval", "--config", path]) == 0
        trajs = runs[0]
        assert 0 < trajs.n_failed < len(trajs.failed)
        # a failed trajectory keeps its last finite point, which the model
        # received in the step it failed and, with only the live rows
        # stepped after that, in no later call
        for i in np.flatnonzero(trajs.failed):
            assert sum(bool((rows == trajs.points[i]).all(axis=1).any()) for rows in sampled) == 1

        def strict(path):  # json.loads accepts NaN and Infinity, which JSON has no number for
            return json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{c} in {path.name}"))

        stats = strict(out / "sample_manifest_sfg.json")["extra"]["sfg_stats"]
        assert stats == evaluation.sfg_stats({k: v[:, ~trajs.failed] for k, v in trajs.sfg_trace.items()})
        assert strict(out / "eval_report.json")["sfg_stats"] == stats
        assert "nan" not in (out / "sfg_trace_sfg.csv").read_text()

    def test_fractal_eval_scores_against_the_mixture(self, tmp_path):
        out = tmp_path / "run"
        path = write_config(tmp_path, fractal_config(out))
        base = load_config(path).specs["base"]
        draws = sample_gmm(base, 400, seed=2)
        noise = 0.03 * np.random.default_rng(3).standard_normal(draws.points.shape)
        out.mkdir()
        LabeledPointSet(draws.points + noise, draws.labels).to_csv(out / "samples_sfg.csv")
        samples = LabeledPointSet.from_csv(out / "samples_sfg.csv").points
        assert main(["eval", "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        # default threshold: Mahalanobis distance 4 to the nearest component
        rates = [evaluation.outlier_rate(samples, base, t) for t in (3.0, 4.0, 5.0)]
        assert rates[0] > report["outlier_rate"] == rates[1] > rates[2]
        assert report["coverage_entropy"] == evaluation.coverage_entropy(samples, base.means)

    def test_small_outlier_threshold_is_used_as_given(self, tmp_path):
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["eval"]["outlier_threshold"] = 0.25
        path = write_config(tmp_path, cfg)
        base = load_config(path).specs["base"]
        out.mkdir()
        sample_gmm(base, 400, seed=2).to_csv(out / "samples_sfg.csv")
        samples = LabeledPointSet.from_csv(out / "samples_sfg.csv").points
        assert main(["eval", "--config", path]) == 0
        rate = json.loads((out / "eval_report.json").read_text())["outlier_rate"]
        assert rate == evaluation.outlier_rate(samples, base, 0.25)
        assert rate > evaluation.outlier_rate(samples, base, 4.0)

    def test_each_command_builds_the_task_mixture_once(self, tmp_path, monkeypatch):
        # loading builds every run object once; the commands read the Run
        built = []

        class CountedFractal(config.Fractal):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(config, "Fractal", CountedFractal)
        cfg = fractal_config(tmp_path / "out")
        cfg["sweep"] = {"kind": "sfg", "weights": [0.0, 1.0]}
        path = write_config(tmp_path, cfg)
        counts = {}
        for command in ("gen-data", "train", "sample", "eval", "sweep"):
            built.clear()
            assert main([command, "--config", path]) == 0
            counts[command] = len(built)
        assert counts == {"gen-data": 1, "train": 1, "sample": 1, "eval": 1, "sweep": 1}

    def test_simplex_gen_data_files(self, tmp_path):
        # data.n_test is deprecated and ignored: a config that sets it writes the
        # same training set as one that does not, and its manifest keeps the key
        configs = {"with_n_test": simplex_config(tmp_path / "a"), "without": simplex_config(tmp_path / "b")}
        del configs["without"]["data"]["n_test"]
        manifests, train = {}, {}
        for name, cfg in configs.items():
            out = Path(cfg["out"])
            assert main(["gen-data", "--config", write_config(tmp_path, cfg, f"{name}.json")]) == 0
            assert sorted(p.name for p in out.iterdir()) == ["gen_data_manifest.json", "train.csv"]
            manifests[name] = json.loads((out / "gen_data_manifest.json").read_text())
            train[name] = (out / "train.csv").read_bytes()
            assert manifests[name]["extra"] == {"files": {"train.csv": 50}}
        assert train["with_n_test"] == train["without"]
        assert manifests["with_n_test"]["config"]["data"]["n_test"] == 20
        assert "n_test" not in manifests["without"]["config"]["data"]

    def test_simplex_eval_esm_rows_and_metrics(self, tmp_path):
        out = tmp_path / "run"
        cfg = _deep_merge(simplex_config(out), {
            "data": {"simplex": {"n_components": 3, "ambient_dim": 3}},
            "train": {"batches": 20, "batch_size": 32, "warmup_batches": 5},
            "schedule": {"n_steps": 8, "sigma_min": 0.02, "sigma_max": 5.0},
            "sample": {"n_samples": 32},
            "eval": {"n_per_region": 16},  # no eval.sigmas: the 12 defaults
        })
        path = write_config(tmp_path, cfg)
        for command in ("gen-data", "train", "sample", "eval"):
            assert main([command, "--config", path]) == 0
        header, *lines = (out / "esm_rows.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert len(rows) == 3 * 12
        assert sorted({r["region"] for r in rows}) == ["mode", "outlier", "saddle"]
        assert all(np.isfinite(float(r["esm"])) for r in rows)
        report = json.loads((out / "eval_report.json").read_text())
        assert set(report) == {"esm_rows", "sfg_stats", *evaluation.METRICS}
        assert len(report["esm_rows"]) == 3 * 12
        assert np.isfinite(report["frechet"])
        assert 0.0 <= report["outlier_rate"] <= 1.0
        assert 0.0 <= report["coverage_entropy"] <= np.log(3) + 1e-12

    def test_sample_metrics_call_the_module_level_functions(self, tmp_path, monkeypatch):
        # a function rebound in the evaluation module after import (as a tracer
        # wraps it) is the one the metric table calls
        run = validate_config(fractal_config(tmp_path / "out"))
        samples = sample_gmm(run.specs["base"], 20, 1)
        calls = []
        for fname in ("outlier_rate", "coverage_entropy", "gaussian_frechet"):
            def counted(*args, _real=getattr(evaluation, fname), _name=fname):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(evaluation, fname, counted)
        metrics = cli._sample_metrics(run, samples, evaluation.METRICS)
        assert calls == ["outlier_rate", "coverage_entropy", "gaussian_frechet"]
        assert list(metrics) == list(evaluation.METRICS)

    def test_two_gaussian_eval_field_tables(self, tmp_path):
        out = tmp_path / "run"
        cfg = {
            "task": "two_gaussian", "seed": 1, "out": str(out),
            "data": {"n_train": 50,
                     "two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
            "eval": {"field": {"variances": [4.0, 2.0, 0.5], "grid_lo": -4.0,
                               "grid_hi": 4.0, "grid_n": 5}},
        }
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["eval", "--config", path]) == 0
        for v in ("4", "2", "0.5"):
            assert (out / f"field_var{v}.csv").exists()

    def test_fractal_eval_field_tables(self, tmp_path):
        # the fractal's mixture is 2-d, so eval.field applies to it as well;
        # with no samples file the report keeps its five keys, empty
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["eval"]["field"] = {"variances": [4.0, 0.5], "grid_lo": -1.0, "grid_hi": 1.0, "grid_n": 5}
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 0
        for v in ("4", "0.5"):
            header, *lines = (out / f"field_var{v}.csv").read_text().splitlines()
            assert len(lines) == 25 and "gate" in header.split(",")
            assert np.isfinite([float(c) for line in lines for c in line.split(",")]).all()
        manifest = json.loads((out / "eval_manifest.json").read_text())
        assert manifest["extra"]["tables"] == {"field_var4.csv": 25, "field_var0.5.csv": 25}
        assert json.loads((out / "eval_report.json").read_text()) == {
            "esm_rows": [], "outlier_rate": None, "coverage_entropy": None, "frechet": None,
            "sfg_stats": None}


class TestSweepCommand:
    def test_single_point_sweep(self, tmp_path):
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["sweep"] = {"kind": "sfg", "weights": [0.0, 1.0],
                        "metrics": ["outlier_rate", "coverage_entropy"]}
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        assert main(["sweep", "--config", path]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "weight,outlier_rate,coverage_entropy"
        assert len(lines) == 3


    def test_cfg_sweep_with_an_interval(self, tmp_path):
        # an interval that holds no level of the schedule (flow times reach
        # 5 / 6) guides nowhere; one that holds every level guides everywhere
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["models"]["u"] = {"hidden": [8]}
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=1), out / "main.ckpt")
        save_checkpoint(ScoreModel(2, [8], seed=2), out / "u.ckpt")
        rows = {}
        for interval in ([0.9, 0.99], [0.0, 1.0]):
            cfg["sweep"] = {"kind": "cfg", "companion": "u", "interval": interval, "weights": [1.0, 4.0],
                            "metrics": ["frechet", "outlier_rate"]}
            assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
            lines = (out / "sweep.csv").read_text().splitlines()
            assert lines[0] == "weight,frechet,outlier_rate" and len(lines) == 3
            rows[interval[0]] = [line.split(",", 1)[1] for line in lines[1:]]
        assert rows[0.9][0] == rows[0.9][1] == rows[0.0][0]
        assert rows[0.0][1] != rows[0.0][0]

    def test_shared_latents_give_the_separately_drawn_sweep(self, tmp_path, monkeypatch):
        # the sweep draws the start latents once for all its points; sampling
        # each point from its own draw writes the same sweep.csv
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["models"]["bad"] = {"hidden": [8], "conditional": True}
        cfg["sweep"] = {"kind": "autoguidance", "companion": "bad", "weights": [1.0, 2.0, 3.0],
                        "metrics": ["frechet", "outlier_rate", "coverage_entropy"]}
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        real_sample = cli.sample
        starts = []

        def shared(*args, x0=None, **kwargs):
            starts.append(x0)
            return real_sample(*args, x0=x0, **kwargs)

        def own_draw(*args, x0=None, **kwargs):
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(cli, "sample", shared)
        assert main(["sweep", "--config", path]) == 0
        table = (out / "sweep.csv").read_bytes()
        assert len(starts) == 3 and starts[0] is not None and all(x is starts[0] for x in starts)
        monkeypatch.setattr(cli, "sample", own_draw)
        assert main(["sweep", "--config", path]) == 0
        assert (out / "sweep.csv").read_bytes() == table
        assert len(table.splitlines()) == 4

    def test_failed_run_is_3_and_named(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["sweep"] = {"kind": "sfg", "weights": [0.0, 2.0], "metrics": ["outlier_rate"]}
        path = write_config(tmp_path, cfg)
        out.mkdir()
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=1), out / "main.ckpt")
        real_sample = cli.sample

        def fails_at_weight_2(provider, *args, **kwargs):
            trajs = real_sample(provider, *args, **kwargs)
            if provider.sfg_spec.weight == 2.0:
                trajs.failed[:] = True
            return trajs

        monkeypatch.setattr(cli, "sample", fails_at_weight_2)
        assert main(["sweep", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "sweep run 1 (weight=2) failed: all trajectories became non-finite" in err
        assert not (out / "sweep.csv").exists()

    def test_unguided_row_matches_eval_of_the_unguided_sample(self, tmp_path):
        out = tmp_path / "run"
        cfg = fractal_config(out)
        cfg["guidance"] = [{"kind": "none"}]
        # Mahalanobis units: half of the barely trained model's samples lie farther
        cfg["eval"]["outlier_threshold"] = 1000.0
        cfg["sweep"] = {"kind": "sfg", "weights": [0.0, 2.0],
                        "metrics": ["frechet", "outlier_rate", "coverage_entropy"]}
        path = write_config(tmp_path, cfg)
        for command in ("gen-data", "train", "sample", "eval", "sweep"):
            assert main([command, "--config", path]) == 0
        report = json.loads((out / "eval_report.json").read_text())
        header, first = (out / "sweep.csv").read_text().splitlines()[:2]
        row = dict(zip(header.split(","), map(float, first.split(","))))
        assert row["weight"] == 0.0 and 0.0 < report["outlier_rate"] < 1.0
        for key in ("frechet", "outlier_rate", "coverage_entropy"):  # eval reads the 9-digit CSV
            assert row[key] == pytest.approx(report[key], rel=1e-6)


class TestPlot:
    def test_scatter_from_samples(self, tmp_path):
        pts = LabeledPointSet(np.random.default_rng(0).standard_normal((30, 2)),
                              np.random.default_rng(1).integers(0, 2, 30))
        csv = tmp_path / "pts.csv"
        pts.to_csv(csv)
        out = tmp_path / "plot.svg"
        assert main(["plot", "--kind", "scatter", "--inputs", str(csv), "--out", str(out)]) == 0
        body = out.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
        assert "circle" in body

    def test_empty_input_gives_axes_only(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("x0,x1,label,region\n")
        out = tmp_path / "plot.svg"
        assert main(["plot", "--kind", "scatter", "--inputs", str(csv), "--out", str(out)]) == 0
        body = out.read_text()
        assert "<svg" in body and "<rect" in body

    def test_high_dimensional_scatter_rejected(self, tmp_path, capsys):
        pts = LabeledPointSet(np.zeros((5, 4)), np.zeros(5, dtype=int))
        csv = tmp_path / "hd.csv"
        pts.to_csv(csv)
        rc = main(["plot", "--kind", "scatter", "--inputs", str(csv),
                   "--out", str(tmp_path / "x.svg")])
        assert rc == 2
        assert "project to 2D" in capsys.readouterr().err

    def test_plot_missing_input_is_4(self, tmp_path):
        rc = main(["plot", "--kind", "scatter", "--inputs", str(tmp_path / "no.csv"),
                   "--out", str(tmp_path / "x.svg")])
        assert rc == 4

    def test_plot_determinism(self, tmp_path):
        pts = LabeledPointSet(np.random.default_rng(2).standard_normal((20, 2)),
                              np.zeros(20, dtype=int))
        csv = tmp_path / "pts.csv"
        pts.to_csv(csv)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "--kind", "scatter", "--inputs", str(csv), "--out", str(a)]) == 0
        assert main(["plot", "--kind", "scatter", "--inputs", str(csv), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_plot(self, tmp_path):
        csv = tmp_path / "sweep.csv"
        csv.write_text("weight,frechet\n0,1.5\n1,1.1\n2,0.9\n")
        out = tmp_path / "curve.svg"
        assert main(["plot", "--kind", "sweep", "--inputs", str(csv), "--out", str(out),
                     "--x", "weight", "--y", "frechet"]) == 0
        assert "polyline" in out.read_text()

    def test_sweep_plot_groups_by_text_column(self, tmp_path):
        csv = tmp_path / "esm_rows.csv"
        csv.write_text("esm,region,sigma,t\n0.1,mode,0.5,0.33\n0.2,mode,1,0.5\n"
                       "0.4,saddle,0.5,0.33\n0.5,saddle,1,0.5\n")
        out = tmp_path / "esm.svg"
        assert main(["plot", "--kind", "sweep", "--inputs", str(csv), "--out", str(out),
                     "--x", "sigma", "--y", "esm", "--group", "region"]) == 0
        assert out.read_text().count("polyline") == 2

    def test_field_plot(self, tmp_path):
        from sfglab.datasets import make_two_gaussian
        from sfglab.evaluation import curvature_field, make_grid, sweep_to_csv
        from sfglab.oracle import smooth

        field = curvature_field(smooth(make_two_gaussian(4.0, 1.0, 2), 0.7071),
                                make_grid(-3, 3, 5))
        csv = tmp_path / "field.csv"
        sweep_to_csv(field, csv)
        out = tmp_path / "field.svg"
        assert main(["plot", "--kind", "field", "--inputs", str(csv), "--out", str(out)]) == 0
        assert "line" in out.read_text()

    def test_field_plot_two_digit_class_ids(self, tmp_path):
        from sfglab.datasets import GmmSpec
        from sfglab.evaluation import curvature_field, make_grid, sweep_to_csv
        from sfglab.oracle import smooth
        from sfglab.svg import PALETTE

        spec = GmmSpec([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], [1.0, 1.0], labels=[10, 11])
        field = curvature_field(smooth(spec, 0.5), make_grid(-3, 3, 4))
        csv = tmp_path / "field.csv"
        sweep_to_csv(field, csv)
        out = tmp_path / "field.svg"
        assert main(["plot", "--kind", "field", "--inputs", str(csv), "--out", str(out)]) == 0
        body = out.read_text()
        assert PALETTE[0] in body and PALETTE[1] in body  # one arrow colour per class


def test_readme_documents_the_output_version():
    # every output break bumps the version, and README says what moved
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    generations = readme.split("Output generations.", 1)[1].split("\n## ", 1)[0]
    assert re.search(rf"^Version {re.escape(__version__)}\b", generations, re.MULTILINE)
    # the installed package reports the same version as the source
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "(.*)"$', pyproject, re.MULTILINE).group(1) == __version__
