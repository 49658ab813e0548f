"""ActionFeatures against the materialised per-action layout it replaces."""

import numpy as np
import pytest

from l2s import core, theory
from l2s.cslearn import CostSensitiveExample, CostSensitiveLearner
from l2s.errors import DimensionMismatch
from l2s.sparse import ActionFeatures, SparseFeatures
from l2s.tasks import LabelTreeTask, ParseTask, SequenceTask
from l2s.theory.exact import ExactModelTask


def materialise(features):
    """One SparseFeatures per action: `shared` shifted by block * base."""
    base = features.shared.dimension
    return [SparseFeatures(tuple((b * base + i, v)
                                 for i, v in features.shared.pairs),
                           features.dimension)
            for b in features.blocks]


def reference_scores(weights, copies):
    return [sum(weights[i] * v for i, v in f.pairs) for f in copies]


def reference_update(weights, copies, costs, lr):
    for f, c in zip(copies, costs):
        g = 2.0 * lr * (sum(weights[i] * v for i, v in f.pairs) - c)
        for i, v in f.pairs:
            weights[i] -= g * v


def reference_argmin(scores, tie_break):
    best = [a for a, s in enumerate(scores) if s == min(scores)]
    return best[-1] if tie_break == "highest" else best[0]


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def random_features(g):
    """Random shared features; block ids drawn with repeats."""
    base = int(g.choice([1, 4, 16]))
    n_blocks = int(g.integers(1, 5))
    k = int(g.integers(1, 7))
    idx = np.sort(g.choice(base, size=int(g.integers(1, base + 1)),
                           replace=False))
    pairs = tuple((int(i), float(g.normal())) for i in idx)
    blocks = tuple(int(b) for b in g.integers(n_blocks, size=k))
    return ActionFeatures(SparseFeatures(pairs, base), blocks, n_blocks * base)


def task_features():
    """ActionFeatures from every task, exact-model slots with equal labels
    (repeated block ids) included."""
    out = []
    seq = SequenceTask(["aa", "bb", "cc"], [0, 1, 2], tag_count=3,
                       base_bits=4)
    s = seq.start_state()
    out.append(seq.action_features(seq.transition(s, 2)))
    parse = ParseTask(["a", "b", "c"], [2, 0, 2], base_bits=4)
    s = parse.transition(parse.start_state(), 0)
    out.append(parse.action_features(s))
    tree = LabelTreeTask([(3, 0.5), (7, -2.0)], [0.1, 0.9, 0.4, 0.2], 4,
                         base_bits=3)
    out.append(tree.action_features(tree.start_state()))
    for model in (theory.indistinct_branch_chooser(),
                  theory.shared_feature_chooser(0.1)):
        task = ExactModelTask(model)
        out.append(task.action_features(task.start_state()))
    assert out[-2].blocks[0] == out[-2].blocks[1]
    return out


def cases():
    g = np.random.default_rng(11)
    feats = task_features() + [random_features(g) for _ in range(200)]
    for n, f in enumerate(feats):
        if n % 2:
            # small integers make ties between actions common
            w = g.integers(-2, 3, size=f.dimension).astype(np.float64)
        else:
            w = g.normal(size=f.dimension)
        yield f, w, g.uniform(size=len(f))


def test_scores_and_argmin_match_materialised_layout():
    ties = 0
    for f, w, _ in cases():
        want = reference_scores(w, materialise(f))
        got = f.scores(w)
        assert bits(got) == bits(want)
        ties += len(set(want)) < len(want)
        for tie_break in ("lowest", "highest"):
            assert core.act(core.LinearPolicy(w, tie_break), f) == \
                reference_argmin(want, tie_break)
    assert ties > 20


def test_update_matches_materialised_sequential_steps():
    for f, w, costs in cases():
        learner = CostSensitiveLearner(f.dimension, eta0=0.3)
        learner.regressor.weights[:] = w
        chosen = learner.predict(CostSensitiveExample(f, costs))
        learner.update(CostSensitiveExample(f, costs))
        want = w.copy()
        reference_update(want, materialise(f), costs, 0.3)
        assert bits(learner.weights) == bits(want)
        assert chosen == learner.ledger.chosen[0] == reference_argmin(
            reference_scores(w, materialise(f)), "lowest")


@pytest.mark.parametrize("delta", [-1, 1])
def test_weights_of_another_length_raise(delta):
    g = np.random.default_rng(3)
    for f in task_features() + [random_features(g) for _ in range(20)]:
        w = np.zeros(f.dimension + delta)
        with pytest.raises(DimensionMismatch):
            f.scores(w)
        with pytest.raises(DimensionMismatch):
            core.act(core.LinearPolicy(w), f)
        learner = CostSensitiveLearner(f.dimension + delta)
        with pytest.raises(DimensionMismatch):
            learner.update(CostSensitiveExample(f, np.zeros(len(f))))
        assert not learner.weights.any()


@pytest.mark.parametrize("blocks", [(0, 2), (-1,)])
def test_blocks_outside_the_dimension_raise(blocks):
    f = ActionFeatures(SparseFeatures(((0, 1.0), (3, 1.0)), 4), blocks, 8)
    with pytest.raises(DimensionMismatch):
        f.scores(np.zeros(8))
    with pytest.raises(DimensionMismatch):
        CostSensitiveLearner(8).update(CostSensitiveExample(f, np.zeros(len(f))))
