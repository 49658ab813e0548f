"""Cost-sensitive one-against-all learner: updates, regret, persistence."""

import math

import numpy as np
import pytest

from l2s.cslearn import (
    CostSensitiveExample,
    CostSensitiveLearner,
    comparator_from_policy,
)
from l2s.errors import (
    DimensionMismatch,
    EmptyActionSet,
    L2SError,
    NonFiniteCost,
)
from l2s.sparse import ActionFeatures, SparseFeatures


def f(*blocks, dim=4, value=1.0):
    """Action a reads weight blocks[a] with `value`."""
    return ActionFeatures(SparseFeatures(((0, value),), 1), blocks, dim)


def ex(costs, dim=4):
    feats = f(*range(len(costs)), dim=dim)
    return CostSensitiveExample(feats, np.asarray(costs, dtype=float))


def test_example_validation():
    with pytest.raises(EmptyActionSet):
        CostSensitiveExample([], np.array([]))
    with pytest.raises(DimensionMismatch):
        CostSensitiveExample(f(0), np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteCost):
        CostSensitiveExample(f(0), np.array([np.nan]))


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


def test_ledger_accrues_pre_update_cost():
    learner = CostSensitiveLearner(4)
    learner.update(ex([3.0, 1.0]))  # zero weights choose action 0, cost 3
    assert learner.ledger.cum_alg_cost == pytest.approx(3.0)
    assert learner.ledger.chosen == [0]
    assert learner.ledger.count == 1


def test_cs_regret_against_comparators():
    learner = CostSensitiveLearner(4)
    learner.update(ex([3.0, 1.0]))
    learner.update(ex([0.0, 2.0]))
    always0 = lambda e: 0
    always1 = lambda e: 1
    # algorithm paid 3 + 0 (weights pointed to action 0 the second time too,
    # after learning from the first update) -- read it off the ledger
    alg = learner.ledger.cum_alg_cost
    assert learner.cs_regret([always0, always1]) == pytest.approx(
        alg - min(3.0 + 0.0, 1.0 + 2.0))


def test_cs_regret_needs_examples_and_comparators():
    learner = CostSensitiveLearner(4, record_examples=False)
    assert learner.cs_regret([lambda e: 0]) == 0.0  # nothing seen yet
    learner.update(ex([1.0]))
    with pytest.raises(L2SError):
        learner.cs_regret([])
    with pytest.raises(L2SError):
        learner.cs_regret([lambda e: 0])  # examples not recorded


def test_comparator_from_policy():
    from l2s.core import LinearPolicy
    pol = LinearPolicy(np.array([0.0, -1.0, 0.0, 0.0]))
    h = comparator_from_policy(pol)
    assert h(ex([5.0, 5.0])) == 1  # feature 1 scores lowest


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
    learner.regressor.weights[:] = [0.5, -0.2, 0.0, 0.0]
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
    assert loaded.regressor.eta0 == learner.regressor.eta0
    assert np.array_equal(loaded.weights, learner.weights)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.model"
    p.write_bytes(b"NOTAMODEL")
    with pytest.raises(L2SError):
        CostSensitiveLearner.load(p)


def test_non_finite_step_raises_before_writing():
    from l2s.errors import Diverged
    learner = CostSensitiveLearner(4, eta0=1000.0)
    learner.regressor.weights[:] = [1e308, 0.0, 0.0, 0.0]
    before = learner.weights.copy()
    with pytest.raises(Diverged):
        learner.update(ex([0.0]))
    assert np.array_equal(learner.weights, before)
