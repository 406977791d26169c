"""Property tests for the file parsers: checkpoints, point-set CSVs, the
numeric tables the CLI plots and run configs."""

import copy
import json
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, validators

from sfglab.cli import _read_table
from sfglab.config import SCHEMA, ConfigError, _violations, validate_config
from sfglab.datasets import LabeledPointSet
from sfglab.evaluation import sweep_to_csv
from sfglab.model import ScoreModel, TrainConfig, load_checkpoint, save_checkpoint

FAST = settings(max_examples=40, deadline=None)
finite = st.floats(allow_nan=False, allow_infinity=False)


def nine_digits(values) -> np.ndarray:
    return np.vectorize(lambda v: float(f"{v:.9g}"), otypes=[float])(values)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("parsers")


@pytest.fixture(scope="module")
def checkpoint_bytes(workdir):
    path = workdir / "full.ckpt"
    save_checkpoint(ScoreModel(2, [4], n_classes=2, seed=0), path)
    return path.read_bytes()


@FAST
@given(data=st.data())
def test_checkpoint_cut_anywhere_is_rejected_naming_the_file(workdir, checkpoint_bytes, data):
    cut = data.draw(st.integers(0, len(checkpoint_bytes) - 1))
    path = workdir / "cut.ckpt"
    path.write_bytes(checkpoint_bytes[:cut])
    with pytest.raises(ValueError, match="cut.ckpt"):
        load_checkpoint(path)


@FAST
@given(shape=st.tuples(st.integers(0, 6), st.integers(1, 4)), data=st.data())
def test_point_set_csv_round_trips_at_nine_digits(workdir, shape, data):
    n, dim = shape
    points = np.array(data.draw(st.lists(st.lists(finite, min_size=dim, max_size=dim),
                                         min_size=n, max_size=n)), dtype=float).reshape(n, dim)
    labels = data.draw(st.lists(st.integers(-5, 2**31 - 1), min_size=n, max_size=n))
    path = workdir / "points.csv"
    LabeledPointSet(points, labels).to_csv(path)
    back = LabeledPointSet.from_csv(path)
    assert np.array_equal(back.points, nine_digits(points))
    assert back.labels.tolist() == labels


@FAST
@given(columns=st.lists(st.sampled_from(["weight", "alpha", "h", "frechet", "x0"]),
                        min_size=1, max_size=5, unique=True), data=st.data())
def test_table_csv_round_trips_at_nine_digits(workdir, columns, data):
    rows = data.draw(st.lists(st.fixed_dictionaries({c: finite for c in columns}), max_size=6))
    path = workdir / "table.csv"
    sweep_to_csv(rows, path)
    back = _read_table(path, lambda header: header)
    assert len(back) == len(rows)
    for got, want in zip(back, rows):
        assert got == {k: float(f"{v:.9g}") for k, v in want.items()}


# small values of each schema type, in and out of every range
count = st.integers(-1, 6)
number = st.one_of(st.integers(-1, 12), st.floats(-1.0, 12.0), st.sampled_from([1e-3, 0.5, 1e3]))
TRAIN = {"batches": st.integers(-1, 40), "batch_size": count, "warmup_batches": st.integers(-1, 40),
         "lr": number, "cosine_anneal": st.booleans(), "weight_decay": number,
         "objective": st.sampled_from(["dsm", "flow_matching", "sgd"]),
         "sigma_min": number, "sigma_max": number, "label_dropout": number}
SCHEDULE = {"kind": st.sampled_from(["sigma", "flow_time"]), "n_steps": count,
            "sigma_min": number, "sigma_max": number, "rho": number}
DATA = {
    "simplex": {"n_components": count, "ambient_dim": count, "scale": number},
    "two_gaussian": {"separation": number, "base_variance": number, "ambient_dim": count},
    "fractal": {"depth": count, "branch_angle": number, "shrink_ratio": number, "jitter_sigma": number,
                "n_classes": count},
}
VALID_DATA = {"simplex": {"n_components": 3, "ambient_dim": 4, "scale": 0.2},
              "two_gaussian": {"separation": 4.0, "base_variance": 1.0, "ambient_dim": 2},
              "fractal": {"depth": 3, "branch_angle": 0.6, "shrink_ratio": 0.75, "jitter_sigma": 0.01}}


def section(fields, valid, required=()):
    """A config section: drawn key by key one time in three, else a valid
    one, so that most examples get past the sections checked before it."""
    drawn = st.fixed_dictionaries({k: fields[k] for k in required},
                                  optional={k: v for k, v in fields.items() if k not in required})
    return st.integers(0, 2).flatmap(lambda i: drawn if i == 0 else st.just(valid))


@st.composite
def run_configs(draw):
    task = draw(st.sampled_from(sorted(DATA)))
    required = [k for k in DATA[task] if k != "n_classes"]
    return {
        "task": task, "seed": 0,
        "data": {task: draw(section(DATA[task], VALID_DATA[task], required))},
        "models": {"main": {"hidden": [4], "train": draw(section(TRAIN, {}))}, "small": {"hidden": [2]}},
        "train": draw(section(TRAIN, {})),
        "schedule": draw(section(SCHEDULE, {})),
        "sample": {"class_id": draw(st.one_of(st.none(), count, st.just("random"), st.text(max_size=3)))},
    }


@settings(max_examples=150, deadline=None)
@given(cfg=run_configs())
def test_a_config_that_validates_builds_every_run_object(cfg):
    try:
        run = validate_config(cfg)
    except ConfigError:
        return
    assert run.specs["base"].dim == run.cfg["data"][cfg["task"]].get("ambient_dim", 2)
    assert list(run.train) == sorted(cfg["models"])
    for name, tc in run.train.items():
        assert isinstance(tc, TrainConfig)
        merged = {**run.cfg["train"], **cfg["models"][name].get("train", {})}
        assert {key: getattr(tc, key) for key in merged} == merged
    sc = run.cfg["schedule"]
    solver = {"sigma": "heun", "flow_time": "euler"}[sc["kind"]]
    assert (run.schedule.solver, run.schedule.n_steps) == (solver, sc["n_steps"])
    assert run.schedule.sigmas[0] == sc["sigma_max"]
    assert [spec.kind for spec in run.guidance] == ["none"]
    assert (run.sweep, run.tag) == ([], "none")


# the reference for the built-in schema checker: jsonschema with the same
# integer rule (an integral float such as 7.0 is not an integer)
_INTEGERS = Draft202012Validator.TYPE_CHECKER.redefine(
    "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool))
REFERENCE = validators.extend(Draft202012Validator, type_checker=_INTEGERS)(SCHEMA)


def assert_checker_matches_jsonschema(cfg):
    """Same verdict, and a violation at the same instance paths."""
    want = {tuple(error.absolute_path) for error in REFERENCE.iter_errors(cfg)}
    assert {path for path, _ in _violations(cfg, SCHEMA, ())} == want, cfg


@settings(max_examples=300, deadline=None)
@given(cfg=run_configs())
def test_schema_checker_matches_jsonschema_on_run_configs(cfg):
    assert_checker_matches_jsonschema(cfg)


EXAMPLE_CONFIGS = [json.loads(path.read_text()) for path in
                   sorted((Path(__file__).parent.parent / "examples_config").glob("*.json"))]
OTHER_TYPES = [7.0, True, None, "x", []]


def nodes(value, path=()):
    """(path, value) of value and of everything nested in it."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from nodes(item, (*path, key))


@st.composite
def mutated_examples(draw):
    """An example config with one to three edits: a key or item deleted, an
    unknown key added, or a value swapped for one of another type."""
    cfg = copy.deepcopy(draw(st.sampled_from(EXAMPLE_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(cfg, dict):
            break
        edit = draw(st.sampled_from(["delete", "add", "swap"]))
        path, value = draw(st.sampled_from([(p, v) for p, v in nodes(cfg)
                                            if isinstance(v, dict) or edit != "add"]))
        if edit == "add":
            value["unknown_key"] = 1
        elif not path:  # the whole config
            cfg = {} if edit == "delete" else copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
        elif edit == "delete":
            del reduce(getitem, path[:-1], cfg)[path[-1]]
        else:
            reduce(getitem, path[:-1], cfg)[path[-1]] = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
    return cfg


@settings(max_examples=300, deadline=None)
@given(cfg=mutated_examples())
def test_schema_checker_matches_jsonschema_on_mutated_examples(cfg):
    assert_checker_matches_jsonschema(cfg)

