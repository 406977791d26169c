import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from jsonschema import Draft202012Validator

from sfglab import cli
from sfglab.cli import main
from sfglab.config import (SCHEMA, ConfigError, _deep_merge, config_hash, load_config, sweep_points,
                           validate_config)
from sfglab.datasets import LabeledPointSet
from sfglab.guidance import GuidanceSpec
from sfglab.model import ScoreModel, save_checkpoint


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
        "eval": {"frechet_reference_n": 64},
    }


def simplex_config(out):
    return {
        "task": "simplex", "seed": 1, "out": str(out),
        "data": {"n_train": 50, "n_test": 20,
                 "simplex": {"n_components": 3, "ambient_dim": 4, "scale": 0.2}},
        "models": {"main": {"hidden": [8]}},
    }


EXAMPLES = sorted((Path(__file__).parent.parent / "examples_config").glob("*.json"))

# values that only a run object's constructor rejects, with the command that
# consumes them: (base config, change, command)
REJECTED_VALUES = {
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
}


class TestConfigValidation:
    def test_schema_is_valid_draft_2020_12(self):
        Draft202012Validator.check_schema(SCHEMA)

    def test_guidance_schema_keys_are_the_spec_fields(self):
        keys = SCHEMA["properties"]["guidance"]["items"]["properties"]
        assert set(keys) == {f.name for f in dataclasses.fields(GuidanceSpec)}

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

    def test_classifier_not_on_fractal(self):
        cfg = fractal_config("x")
        cfg["guidance"] = [{"kind": "classifier", "weight": 1.0, "classifier_class": 0}]
        with pytest.raises(ConfigError, match="mixture task"):
            validate_config(cfg)

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
        assert points(kind="interval_cfg", companion="u", interval=[0.1, 0.8], weights=[3]) == [
            ({"weight": 3.0}, [GuidanceSpec(kind="interval_cfg", weight=3.0, companion="u",
                                            interval=(0.1, 0.8))])]

    def test_classifier_sweep_takes_the_run_classifier_class(self):
        cfg = validate_config({
            "task": "two_gaussian", "seed": 0,
            "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
            "models": {"main": {"hidden": [8]}, "bad": {"hidden": [8]}},
            "guidance": [{"kind": "autoguidance", "weight": 2.0, "companion": "bad"},
                         {"kind": "classifier", "weight": 1.0, "classifier_class": 1}],
            "sweep": {"kind": "classifier", "weights": [0.0, 2.0]},
        })
        assert [s.classifier_class for _, stack in sweep_points(cfg) for s in stack] == [1, 1]
        cfg["guidance"] = cfg["guidance"][:1]  # no classifier spec: class 0
        assert [s.classifier_class for _, stack in sweep_points(cfg) for s in stack] == [0, 0]

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

    @pytest.mark.parametrize("path", EXAMPLES, ids=[p.name for p in EXAMPLES])
    def test_example_config_loads(self, path):
        cfg = load_config(path)
        assert cfg["task"] in cfg["data"]

    def test_hash_stable_under_key_order(self):
        a = validate_config({"task": "simplex", "seed": 1,
                             "data": {"simplex": {"n_components": 2, "ambient_dim": 4, "scale": 0.2}}})
        b = validate_config({"seed": 1, "task": "simplex",
                             "data": {"simplex": {"scale": 0.2, "ambient_dim": 4, "n_components": 2}}})
        assert config_hash(a) == config_hash(b)


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, {"task": "nope", "seed": 0})
        assert main(["gen-data", "--config", path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_nan_is_not_json(self, tmp_path, capsys):
        cfg = _deep_merge(simplex_config(tmp_path / "out"), {"data": {"simplex": {"scale": float("nan")}}})
        assert main(["gen-data", "--config", write_config(tmp_path, cfg)]) == 2
        assert "NaN is not a JSON number" in capsys.readouterr().err

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

    @pytest.mark.parametrize("field, change", [
        ("sample.n_samples", {"sample": {"n_samples": 3}}),
        ("eval.frechet_reference_n", {"eval": {"frechet_reference_n": 4}}),
    ], ids=["n_samples", "frechet_reference_n"])
    def test_too_few_frechet_samples_is_2(self, tmp_path, capsys, field, change):
        # the simplex here is 4-d: the Frechet covariance needs at least 5 points
        cfg = _deep_merge(simplex_config(tmp_path / "out"), change)
        with pytest.raises(ConfigError, match=field):
            validate_config(cfg)
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 2
        assert field in capsys.readouterr().err

    def test_too_few_finite_samples_is_3(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["sweep"] = {"kind": "sfg", "weights": [1.0], "metrics": ["frechet"]}
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["train", "--config", path]) == 0
        real_sample = cli.sample

        def two_finite(*args, **kwargs):  # failed trajectories leave 2 samples in 2-d
            trajs = real_sample(*args, **kwargs)
            trajs.failed[2:] = True
            return trajs

        monkeypatch.setattr(cli, "sample", two_finite)
        assert main(["sample", "--config", path]) == 0
        for command in ("eval", "sweep"):
            assert main([command, "--config", path]) == 3
            assert "too few for the Frechet distance" in capsys.readouterr().err

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
        # eval computes coverage_entropy before frechet; the sweep asks for frechet only
        for command, metric in (("eval", "coverage_entropy"), ("sweep", "frechet")):
            assert main([command, "--config", path]) == 3
            err = capsys.readouterr().err
            assert f"metric {metric} is" in err and "not a finite number" in err
        assert not (out / "eval_report.json").exists()
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("n_rows", [0, 2])
    def test_samples_file_too_small_for_frechet_is_3(self, tmp_path, capsys, n_rows):
        out = tmp_path / "out"
        cfg = fractal_config(out)
        cfg["eval"]["samples_file"] = "few.csv"
        out.mkdir()
        LabeledPointSet(np.zeros((n_rows, 2)), np.zeros(n_rows, dtype=int)).to_csv(out / "few.csv")
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 3
        assert f"{n_rows} finite samples are too few for the Frechet distance" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_samples_without_a_nearest_mode_is_3(self, tmp_path, capsys):
        # finite samples so large that every distance to a mode overflows
        out = tmp_path / "out"
        cfg = {"task": "two_gaussian", "seed": 1, "out": str(out),
               "data": {"two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2}},
               "eval": {"samples_file": "huge.csv", "frechet_reference_n": 64}}
        out.mkdir()
        points = np.random.default_rng(2).standard_normal((50, 2)) * 1e160
        LabeledPointSet(points, np.zeros(50, dtype=int)).to_csv(out / "huge.csv")
        assert main(["eval", "--config", write_config(tmp_path, cfg)]) == 3
        assert "metric coverage_entropy is nan, not a finite number" in capsys.readouterr().err
        assert not (out / "eval_report.json").exists()

    def test_missing_config_is_4(self, capsys):
        assert main(["train", "--config", "/definitely/not/here.json"]) == 4

    def test_missing_dataset_is_4(self, tmp_path, capsys):
        cfg = fractal_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["train", "--config", path]) == 4
        assert "gen-data first" in capsys.readouterr().err

    def test_missing_checkpoint_is_4(self, tmp_path):
        cfg = fractal_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        assert main(["sample", "--config", path]) == 4

    def test_bad_json_is_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert main(["gen-data", "--config", str(p)]) == 2

    @pytest.mark.parametrize("artifact, command, corrupt", [
        ("main.ckpt", "sample", lambda b: b[:300]),
        ("main.ckpt", "sample", lambda b: b"NOPE" + b[4:]),
        ("train.csv", "train", lambda b: b.replace(b",", b",abc,", 1)),
    ], ids=["checkpoint_cut_to_300_bytes", "checkpoint_bad_magic", "csv_non_numeric_cell"])
    def test_corrupt_artifact_is_4(self, tmp_path, capsys, artifact, command, corrupt):
        out = tmp_path / "out"
        path = write_config(tmp_path, fractal_config(out))
        assert main(["gen-data", "--config", path]) == 0
        save_checkpoint(ScoreModel(2, [16], n_classes=2, seed=1), out / "main.ckpt")
        target = out / artifact
        target.write_bytes(corrupt(target.read_bytes()))
        assert main([command, "--config", path]) == 4
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

    def test_simplex_gen_data_files(self, tmp_path):
        out = tmp_path / "run"
        cfg = {
            "task": "simplex", "seed": 1, "out": str(out),
            "data": {"n_train": 50, "n_test": 20,
                     "simplex": {"n_components": 3, "ambient_dim": 4, "scale": 0.2}},
        }
        path = write_config(tmp_path, cfg)
        assert main(["gen-data", "--config", path]) == 0
        for name in ("train.csv", "test_mode.csv", "test_saddle.csv", "test_outlier.csv"):
            assert (out / name).exists()
        mode = LabeledPointSet.from_csv(out / "test_mode.csv")
        assert mode.region_tag == ["mode"] * 20

    def test_simplex_eval_esm_rows_and_metrics(self, tmp_path):
        out = tmp_path / "run"
        cfg = _deep_merge(simplex_config(out), {
            "data": {"simplex": {"n_components": 3, "ambient_dim": 3}},
            "train": {"batches": 20, "batch_size": 32, "warmup_batches": 5},
            "schedule": {"n_steps": 8, "sigma_min": 0.02, "sigma_max": 5.0},
            "sample": {"n_samples": 32},
            "eval": {"n_per_region": 16, "frechet_reference_n": 64},  # no eval.sigmas: the 12 defaults
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
        assert len(report["esm_rows"]) == 3 * 12
        assert np.isfinite(report["frechet"])
        assert 0.0 <= report["outlier_rate"] <= 1.0
        assert 0.0 <= report["coverage_entropy"] <= np.log(3) + 1e-12

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
        cfg["eval"]["outlier_threshold"] = 10.0  # some of the barely trained model's samples lie farther
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

        rows = curvature_field(smooth(make_two_gaussian(4.0, 1.0, 2), 0.7071),
                               make_grid(-3, 3, 5))
        csv = tmp_path / "field.csv"
        sweep_to_csv(rows, csv)
        out = tmp_path / "field.svg"
        assert main(["plot", "--kind", "field", "--inputs", str(csv), "--out", str(out)]) == 0
        assert "line" in out.read_text()

    def test_field_plot_two_digit_class_ids(self, tmp_path):
        from sfglab.datasets import GmmSpec
        from sfglab.evaluation import curvature_field, make_grid, sweep_to_csv
        from sfglab.oracle import smooth
        from sfglab.svg import PALETTE

        spec = GmmSpec([0.5, 0.5], [[-2.0, 0.0], [2.0, 0.0]], [1.0, 1.0], labels=[10, 11])
        rows = curvature_field(smooth(spec, 0.5), make_grid(-3, 3, 4))
        csv = tmp_path / "field.csv"
        sweep_to_csv(rows, csv)
        out = tmp_path / "field.svg"
        assert main(["plot", "--kind", "field", "--inputs", str(csv), "--out", str(out)]) == 0
        body = out.read_text()
        assert PALETTE[0] in body and PALETTE[1] in body  # one arrow colour per class
