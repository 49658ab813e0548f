"""Cost-sensitive one-against-all learner: updates and persistence."""

import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2s.cslearn import (
    FORMAT_VERSION,
    HEADER,
    MAGIC,
    CostSensitiveExample,
    CostSensitiveLearner,
)
from l2s.errors import L2SError
from l2s.sparse import ActionFeatures, SparseFeatures


def f(*blocks, dim=4, value=1.0):
    """Action a reads weight blocks[a] with `value`."""
    return ActionFeatures(SparseFeatures(((0, value),), 1), blocks, dim)


def ex(costs, dim=4):
    feats = f(*range(len(costs)), dim=dim)
    return CostSensitiveExample(feats, np.asarray(costs, dtype=float))


def test_example_validation():
    with pytest.raises(L2SError, match="example with no actions"):
        CostSensitiveExample([], np.array([]))
    with pytest.raises(L2SError,
                       match="feature list and cost vector lengths differ"):
        CostSensitiveExample(f(0), np.array([1.0, 2.0]))
    with pytest.raises(L2SError, match=r"^costs \[nan\]$"):
        CostSensitiveExample(f(0), np.array([np.nan]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 4),
       st.booleans())
def test_example_rejects_non_finite_costs(costs, bad, at, as_array):
    costs = costs[:at] + [bad] + costs[at:]
    given_costs = np.array(costs) if as_array else costs
    with pytest.raises(L2SError, match="^costs ") as err:
        CostSensitiveExample(f(*range(len(costs)), dim=len(costs)), given_costs)
    assert str(err.value) == f"costs {np.asarray(costs, dtype=np.float64)}"


def test_predict_argmin_ties_lowest():
    learner = CostSensitiveLearner(4)
    assert learner.predict(ex([5.0, 5.0])) == 0  # all predictions are 0


def test_single_update_weight_value():
    # one action, cost 2, zero weights, first update (lr = 0.5):
    # w[0] <- 0 - 2 * 0.5 * (0 - 2) * 1 = 2
    learner = CostSensitiveLearner(4, eta0=0.5)
    learner.update(ex([2.0]))
    assert learner.weights[0] == pytest.approx(2.0)


def test_sequential_pass_shares_weights():
    # both actions read feature 0; the second step sees the first's update.
    # step 1 (cost 1): w0 <- 0 - 2*0.5*(0-1) = 1
    # step 2 (cost 0): w0 <- 1 - 2*0.5*(1-0) = 0
    learner = CostSensitiveLearner(4, eta0=0.5)
    feats = f(0, 0)
    learner.update(CostSensitiveExample(feats, np.array([1.0, 0.0])))
    assert learner.weights[0] == pytest.approx(0.0)


def test_learning_rate_decays_with_update_count():
    learner = CostSensitiveLearner(4, eta0=0.5)
    learner.update(ex([1.0]))           # lr = 0.5:   w0 = 1.0
    learner.update(ex([1.0]))           # lr = 0.5/sqrt(2): w0 += 2*lr*(1-1)=0
    assert learner.weights[0] == pytest.approx(1.0)
    learner.update(ex([2.0]))           # lr = 0.5/sqrt(3)
    lr3 = 0.5 / math.sqrt(3)
    assert learner.weights[0] == pytest.approx(1.0 + 2 * lr3 * (2.0 - 1.0))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    dim = 6
    for _ in range(50):
        w = rng.normal(size=dim)
        pairs = tuple(sorted((int(i), float(rng.normal()))
                             for i in rng.choice(dim, size=3, replace=False)))
        feats = SparseFeatures(pairs, dim)
        cost = float(rng.normal())
        # loss(w) = (w.x - c)^2; analytic grad = 2 (w.x - c) x
        base = np.array(w)
        pred = sum(base[i] * v for i, v in pairs)
        grad = np.zeros(dim)
        for i, v in pairs:
            grad[i] = 2.0 * (pred - cost) * v
        eps = 1e-6
        for i, _ in pairs:
            wp, wm = np.array(w), np.array(w)
            wp[i] += eps
            wm[i] -= eps
            lp = (sum(wp[j] * v for j, v in pairs) - cost) ** 2
            lm = (sum(wm[j] * v for j, v in pairs) - cost) ** 2
            fd = (lp - lm) / (2 * eps)
            assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(fd))


def test_update_step_is_gradient_descent():
    # after one step from w, w' = w - lr * 2 (w.x - c) x
    learner = CostSensitiveLearner(4, eta0=0.3)
    learner.weights[:] = [0.5, -0.2, 0.0, 0.0]
    feats = ActionFeatures(SparseFeatures(((0, 2.0), (1, 1.0)), 4), (0,), 4)
    cost = 0.7
    pred = 0.5 * 2.0 + (-0.2) * 1.0
    learner.update(CostSensitiveExample(feats, np.array([cost])))
    lr = 0.3
    assert learner.weights[0] == pytest.approx(0.5 - lr * 2 * (pred - cost) * 2.0)
    assert learner.weights[1] == pytest.approx(-0.2 - lr * 2 * (pred - cost) * 1.0)


def test_save_load_round_trip_bit_exact(tmp_path):
    learner = CostSensitiveLearner(8, eta0=0.25)
    rng = np.random.default_rng(1)
    for _ in range(5):
        costs = rng.uniform(size=3)
        feats = f(*(int(i) for i in rng.choice(8, size=3, replace=False)), dim=8)
        learner.update(CostSensitiveExample(feats, costs))
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    learner.save(p1)
    loaded = CostSensitiveLearner.load(p1)
    assert loaded.updates == learner.updates
    assert loaded.eta0 == learner.eta0
    assert np.array_equal(loaded.weights, learner.weights)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_holds_one_copy_of_the_weights(tmp_path):
    # a tagging-size model, 5 x 2**15 weights (1.31 MB): the load's traced
    # peak is the array it reads, with no zero vector built beside it
    learner = CostSensitiveLearner(5 << 15)
    learner.weights[:] = np.random.default_rng(2).normal(size=5 << 15)
    path = tmp_path / "m.model"
    learner.save(path)
    tracemalloc.start()
    try:
        loaded = CostSensitiveLearner.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.weights, learner.weights)
    assert learner.weights.nbytes <= peak < 1.2 * learner.weights.nbytes


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.model"
    p.write_bytes(b"NOTAMODEL")
    with pytest.raises(L2SError):
        CostSensitiveLearner.load(p)


def test_non_finite_step_raises_before_writing():
    learner = CostSensitiveLearner(4, eta0=1000.0)
    learner.weights[:] = [1e308, 0.0, 0.0, 0.0]
    before = learner.weights.copy()
    with pytest.raises(L2SError, match="update step .* at learning rate"):
        learner.update(ex([0.0]))
    assert np.array_equal(learner.weights, before)


def _model_bytes(d, payload):
    """A version-1 header for `d` weights followed by `payload`."""
    return MAGIC + HEADER.pack(FORMAT_VERSION, d, 0.5, 3) + payload


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda b: MAGIC + b),
    st.builds(_model_bytes, st.integers(0, 8), st.binary(max_size=72)),
))
def test_load_any_bytes(blob):
    # an L2SError, or a learner holding the header's count of finite weights
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            learner = CostSensitiveLearner.load(path)
        except L2SError:
            return
    _, d, _, _ = HEADER.unpack(blob[len(MAGIC):len(MAGIC) + HEADER.size])
    assert learner.dimension == d
    assert np.all(np.isfinite(learner.weights))
