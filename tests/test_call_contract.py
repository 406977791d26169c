"""One call contract for every estimator: an (N, n) float batch of points
(full_spectrum: a stack (N, n, n) of matrices) and, for a predictor, one
noise level sigma, a scalar with 0 < sigma < inf. A point (n,), a lone
matrix (n, n) and any other sigma raise ValueError."""

import numpy as np
import pytest

from sfglab.datasets import make_two_gaussian
from sfglab.model import OracleModel, ScoreModel
from sfglab.oracle import classifier_grad, classify_region, full_spectrum, hessian, log_density, score, smooth

SPEC = make_two_gaussian(4.0, 1.0, 2)
G = smooth(SPEC, 0.5)
X = np.array([[0.3, -1.2], [1.0, 0.5], [-2.0, 0.1]])

PREDICTORS = {
    "ScoreModel_eps": ScoreModel(2, [8], n_classes=2, param="eps", seed=1),
    "ScoreModel_flow": ScoreModel(2, [8], n_classes=2, param="flow", seed=2),
    "OracleModel": OracleModel(SPEC),
}

# name -> (estimator of one batch, that batch)
ESTIMATORS = {
    "log_density": (lambda x: log_density(G, x), X),
    "score": (lambda x: score(G, x), X),
    "hessian": (lambda x: hessian(G, x), X),
    "classifier_grad": (lambda x: classifier_grad(G, x, 0), X),
    "classify_region": (lambda x: classify_region(G, x), X),
    "full_spectrum": (lambda h: full_spectrum(h)[0], hessian(G, X)),
    **{f"{name}.predict_eps": (lambda x, m=m: m.predict_eps(x, 0.5), X) for name, m in PREDICTORS.items()},
}


@pytest.mark.parametrize("name", ESTIMATORS)
def test_a_batch_gives_one_result_per_row_and_a_point_raises(name):
    fn, batch = ESTIMATORS[name]
    assert len(fn(batch)) == len(batch)
    assert len(fn(batch[:1])) == 1
    with pytest.raises(ValueError):
        fn(batch[0])  # a point (n,), or a lone matrix (n, n)


@pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf, np.array([0.5])],
                         ids=["zero", "negative", "nan", "inf", "array"])
def test_every_predictor_raises_the_same_error_for_a_bad_sigma(sigma):
    messages = set()
    for m in PREDICTORS.values():
        with pytest.raises(ValueError, match="sigma must be > 0, finite and one value per call") as info:
            m.predict_eps(X, sigma)
        messages.add(str(info.value))
    assert len(messages) == 1
