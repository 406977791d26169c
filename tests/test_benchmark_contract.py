"""What the benchmark in perfbench/ needs from sfglab: every workload config
loads, and the tracing layer finds every function it wraps and puts each
one back. A source change that would break the benchmark fails here first.
Only reads perfbench/."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import instrument  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sfglab import cli, config, datasets, sampler  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_validates(name, tmp_path):
    for seed in (1, 5):
        cfg = config.validate_config(WORKLOADS[name].config(seed, str(tmp_path)))
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
