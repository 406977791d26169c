"""Property tests for the file parsers: checkpoints, point-set CSVs and the
numeric tables the CLI plots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfglab.cli import _read_table
from sfglab.datasets import LabeledPointSet
from sfglab.evaluation import sweep_to_csv
from sfglab.model import ScoreModel, load_checkpoint, save_checkpoint

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
    tags = data.draw(st.lists(st.sampled_from(["", "mode", "saddle_2"]), min_size=n, max_size=n))
    path = workdir / "points.csv"
    LabeledPointSet(points, labels, tags).to_csv(path)
    back = LabeledPointSet.from_csv(path)
    assert np.array_equal(back.points, nine_digits(points))
    assert back.labels.tolist() == labels
    assert back.region_tag == (tags if any(tags) else None)


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
