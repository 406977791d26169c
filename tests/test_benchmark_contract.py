"""What the benchmark in perfbench/ needs from sfglab: every workload config
loads, the tracing layer finds every function it wraps and puts each one
back, and a threaded sample run keeps the guided-evaluation cost and runs on
more than one thread. A source change that would break the benchmark fails
here first. Only reads perfbench/."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import instrument  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, forwards_per_eval, guided_evals  # noqa: E402

from sfglab import cli, config, datasets, sampler  # noqa: E402
from sfglab.datasets import sample_gmm  # noqa: E402
from sfglab.model import ScoreModel, save_checkpoint  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_validates(name, tmp_path):
    for seed in (1, 5):
        cfg = config.validate_config(WORKLOADS[name].config(seed, str(tmp_path))).cfg
        assert cfg["task"] in cfg["data"]


def test_install_wraps_every_name_and_restore_puts_the_originals_back():
    wrapped = {
        "Fractal.sample": (datasets.Fractal, "sample"),
        "LabeledPointSet.to_csv": (datasets.LabeledPointSet, "to_csv"),
        "sampler._sample_ode": (sampler, "_sample_ode"),
        "cli.cmd_eval": (cli, "cmd_eval"),
        "cli.sample_gmm": (cli, "sample_gmm"),
    }
    before = {key: vars(owner)[attr] for key, (owner, attr) in wrapped.items()}
    patcher = instrument.install(Tracer())  # raises if a wrapped name is bound nowhere
    try:
        for key, (owner, attr) in wrapped.items():
            assert vars(owner)[attr] is not before[key], f"{key} not wrapped"
    finally:
        assert patcher.restore() == []
    for key, (owner, attr) in wrapped.items():
        assert vars(owner)[attr] is before[key], f"{key} not restored"


def test_training_fires_one_forward_and_one_backward_span_per_batch(tmp_path):
    # the train command in small over two models: the traced training seams
    # (model.train, the cached forward, backprop, the sigmoid) must see every
    # batch, or perfbench's span-coverage check fails
    out = tmp_path / "out"
    cfg = WORKLOADS["fractal2d-autoguide-sfg"].config(1, str(out))
    cfg["data"]["n_train"] = 200
    cfg["models"] = {"main": {"hidden": [16, 16], "conditional": True},
                     "bad": {"hidden": [8], "conditional": True,
                             "train": {"batches": 4, "warmup_batches": 1}}}
    cfg["train"].update(batches=6, warmup_batches=2, batch_size=16)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["gen-data", "--config", str(path)]) == 0

    tracer = Tracer()
    patcher = instrument.install(tracer)
    try:
        assert cli.main(["train", "--config", str(path)]) == 0
    finally:
        assert patcher.restore() == []
    counts = instrument.span_counts(tracer)
    batches = {name: tc.batches for name, tc in config.validate_config(cfg).train.items()}
    assert batches == {"main": 6, "bad": 4}
    assert counts.get("model.train") == 2
    assert counts.get("model.fwd_train") == counts.get("model.bwd") == sum(batches.values())
    assert counts.get("model.sigmoid") == sum(batches[name] * len(cfg["models"][name]["hidden"])
                                              for name in batches)


def test_threaded_sampling_keeps_the_cost_contract(tmp_path):
    # the fractal workload's sample command in small: autoguidance + sfg over
    # two conditional models, 4 chunks, --threads 2
    out = tmp_path / "out"
    out.mkdir()
    cfg = WORKLOADS["fractal2d-autoguide-sfg"].config(1, str(out))
    cfg["data"]["n_train"] = 200
    cfg["models"] = {"main": {"hidden": [16, 16], "conditional": True},
                     "bad": {"hidden": [8], "conditional": True}}
    cfg["schedule"]["n_steps"] = 6
    cfg["sample"].update(n_samples=32, chunk_size=8)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for name, mcfg in cfg["models"].items():
        save_checkpoint(ScoreModel(2, mcfg["hidden"], n_classes=2, seed=len(name)), out / f"{name}.ckpt")

    tracer = Tracer()
    patcher = instrument.install(tracer)
    # the four chunks take a few ms: at the default 5 ms switch interval the
    # first worker can hold the interpreter lock until it has run them all
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert cli.main(["sample", "--config", str(path), "--threads", "2"]) == 0
    finally:
        sys.setswitchinterval(switch)
        assert patcher.restore() == []
    (run,) = instrument.sampler_runs(tracer)
    assert run["command"] == "cli.sample" and run["chunks"] == 4
    assert len(run["threads"]) > 1, "provider calls ran on one thread with --threads 2"
    stack = WORKLOADS["fractal2d-autoguide-sfg"].sample_stack
    evals = guided_evals(stack, run["n_steps"], run["heun"]) * run["chunks"]
    assert (run["evals"], run["forwards"]) == (evals, evals * forwards_per_eval(stack))


def test_sample_draws_from_a_fixed_number_of_generators(tmp_path):
    # the fractal workload's sample command in small (random class ids,
    # autoguidance + sfg): each kind of per-trajectory randomness is one
    # array from one generator, so the count does not grow with n_samples
    out = tmp_path / "out"
    out.mkdir()
    cfg = WORKLOADS["fractal2d-autoguide-sfg"].config(1, str(out))
    cfg["models"] = {"main": {"hidden": [16, 16], "conditional": True},
                     "bad": {"hidden": [8], "conditional": True}}
    cfg["schedule"]["n_steps"] = 4
    for name, mcfg in cfg["models"].items():
        save_checkpoint(ScoreModel(2, mcfg["hidden"], n_classes=2, seed=len(name)), out / f"{name}.ckpt")
    calls = {}
    for n_samples in (32, 64):
        cfg["sample"].update(n_samples=n_samples, chunk_size=16)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        tracer = Tracer()
        patcher = instrument.install(tracer)
        try:
            assert cli.main(["sample", "--config", str(path)]) == 0
        finally:
            assert patcher.restore() == []
        calls[n_samples] = instrument.span_counts(tracer).get("rng.generator")
    assert calls[32] == calls[64] == 3  # start latents, class ids, sfg start vectors


def test_twogauss_eval_fires_the_field_and_csv_spans(tmp_path):
    # the twogauss workload's eval in small: perfbench's coverage check needs
    # the curvature-field span, and its CSV metrics the table and reader spans
    out = tmp_path / "out"
    out.mkdir()
    cfg = WORKLOADS["twogauss-flow-classifier"].config(1, str(out))
    cfg["eval"]["field"]["grid_n"] = 5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    sample_gmm(config.validate_config(cfg).specs["base"], 50, 3).to_csv(
        out / "samples_classifier.csv")

    tracer = Tracer()
    patcher = instrument.install(tracer)
    try:
        assert cli.main(["eval", "--config", str(path)]) == 0
    finally:
        assert patcher.restore() == []
    counts = instrument.span_counts(tracer)
    variances = cfg["eval"]["field"]["variances"]
    points = [sp.attrs["points"] for sp in tracer.spans if sp.name == "evaluation.curvature_field"]
    assert points == [5 * 5] * len(variances)
    assert counts.get("evaluation.sweep_to_csv") == len(variances)
    assert counts.get("datasets.from_csv") == 1


def test_fractal_eval_and_sweep_fire_no_oracle_span(tmp_path):
    # the fractal workload's eval and a one-point sweep in small: its coverage
    # check lists no oracle span for this workload, so the metrics must reach
    # the mixture without smooth/score/hessian/classifier_grad/full_spectrum
    out = tmp_path / "out"
    out.mkdir()
    cfg = WORKLOADS["fractal2d-autoguide-sfg"].config(1, str(out))
    cfg["models"] = {"main": {"hidden": [16, 16], "conditional": True},
                     "bad": {"hidden": [8], "conditional": True}}
    cfg["schedule"]["n_steps"] = 4
    cfg["sample"].update(n_samples=32, chunk_size=16)
    cfg["sweep"]["weights"] = [2.0]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for name, mcfg in cfg["models"].items():
        save_checkpoint(ScoreModel(2, mcfg["hidden"], n_classes=2, seed=len(name)), out / f"{name}.ckpt")
    base = config.validate_config(cfg).specs["base"]
    sample_gmm(base, 50, 3).to_csv(out / "samples_autoguidance+sfg.csv")

    tracer = Tracer()
    patcher = instrument.install(tracer)
    try:
        assert cli.main(["eval", "--config", str(path)]) == 0
        assert cli.main(["sweep", "--config", str(path)]) == 0
    finally:
        assert patcher.restore() == []
    counts = instrument.span_counts(tracer)
    assert not [name for name in counts if name.startswith("oracle.")]
    assert counts.get("evaluation.outlier_rate") == counts.get("evaluation.coverage_entropy") == 2
