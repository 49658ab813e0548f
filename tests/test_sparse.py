"""ActionFeatures against the materialised per-action layout it replaces."""

import dataclasses
import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2s import core, sparse, theory
from l2s.cslearn import CostSensitiveExample, CostSensitiveLearner
from l2s.errors import L2SError
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
    seq = SequenceTask(["aa", "bb", "cc"], [0, 1, 2], tag_count=3)
    s = seq.start_state()
    out.append(seq.action_features(seq.transition(s, 2)))
    parse = ParseTask(["a", "b", "c"], [2, 0, 2])
    s = parse.transition(parse.start_state(), 0)
    out.append(parse.action_features(s))
    tree = LabelTreeTask([(3, 0.5), (7, -2.0)], [0.1, 0.9, 0.4, 0.2], 4)
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
        assert core.act(core.LinearPolicy(w), f) == \
            reference_argmin(want, "lowest")
    assert ties > 20


def test_update_matches_materialised_sequential_steps():
    for f, w, costs in cases():
        learner = CostSensitiveLearner(f.dimension, eta0=0.3)
        learner.weights[:] = w
        chosen = learner.predict(CostSensitiveExample(f, costs))
        learner.update(CostSensitiveExample(f, costs))
        want = w.copy()
        reference_update(want, materialise(f), costs, 0.3)
        assert bits(learner.weights) == bits(want)
        assert chosen == reference_argmin(
            reference_scores(w, materialise(f)), "lowest")


def test_scores_and_update_add_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left-to-right sum is 0.0; a
    # compensated sum (builtin sum() over floats from Python 3.12) is 1.0
    f = ActionFeatures(SparseFeatures(((0, 1.0), (1, 1.0), (2, 1.0)), 3),
                       (0, 1), 6)
    w = np.array([0.0, 0.0, 0.0, 1e16, 1.0, -1e16])
    assert f.scores(w) == [0.0, 0.0]
    learner = CostSensitiveLearner(f.dimension, eta0=0.3)
    learner.weights[:] = w
    costs = np.array([0.5, 2.0])
    learner.update(CostSensitiveExample(f, costs))
    want = w.copy()
    reference_update(want, materialise(f), costs, 0.3)
    assert bits(learner.weights) == bits(want)


@pytest.mark.parametrize("delta", [-1, 1])
def test_weights_of_another_length_raise(delta):
    g = np.random.default_rng(3)
    for f in task_features() + [random_features(g) for _ in range(20)]:
        w = np.zeros(f.dimension + delta)
        mismatch = f"feature dimension {f.dimension} != weights {len(w)}"
        with pytest.raises(L2SError, match=mismatch):
            f.scores(w)
        with pytest.raises(L2SError, match=mismatch):
            core.act(core.LinearPolicy(w), f)
        learner = CostSensitiveLearner(f.dimension + delta)
        with pytest.raises(L2SError, match=mismatch):
            learner.update(CostSensitiveExample(f, np.zeros(len(f))))
        assert not learner.weights.any()


@pytest.mark.parametrize("blocks", [(0, 2), (-1,)])
def test_blocks_outside_the_dimension_raise(blocks):
    f = ActionFeatures(SparseFeatures(((0, 1.0), (3, 1.0)), 4), blocks, 8)
    outside = r"features at -?\d+ \+ \[0, 4\) outside weights 8"
    with pytest.raises(L2SError, match=outside):
        f.scores(np.zeros(8))
    with pytest.raises(L2SError, match=outside):
        CostSensitiveLearner(8).update(CostSensitiveExample(f, np.zeros(len(f))))
    # nonzero costs would move any weight an out-of-range block reached
    learner = CostSensitiveLearner(8)
    with pytest.raises(L2SError, match=outside):
        learner.update(CostSensitiveExample(f, np.ones(len(f))))
    assert not learner.weights.any()


@pytest.mark.parametrize("pairs", [
    ((2, 1.0), (1, 1.0)),           # out of order
    ((1, 1.0), (1, 2.0)),           # a repeated index
    ((0, 1.0), (4, 1.0)),           # index equal to the dimension
    ((-1, 1.0),),                   # negative index
    ((1, float("nan")),),
    ((1, float("inf")),),
], ids=["out-of-order", "repeated", "index-at-dimension", "negative",
        "nan", "inf"])
def test_sparse_features_refuse_bad_pairs(pairs):
    with pytest.raises(L2SError, match=r"out of order or outside \[0, 4\)"
                                       "|non-finite value at index 1"):
        SparseFeatures(pairs, 4)


# values whose sums depend on the order they are added in, signed zeros,
# and any other finite float
VALUES = st.one_of(st.sampled_from([1e16, 1.0, -1e16, 0.0, -0.0, 5e-324]),
                   st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def features_and_weights(draw):
    base = draw(st.integers(1, 6))
    n_blocks = draw(st.integers(1, 4))
    idx = draw(st.lists(st.integers(0, base - 1), unique=True, max_size=base))
    pairs = tuple((i, draw(VALUES)) for i in sorted(idx))
    # repeated blocks, and blocks in any order
    blocks = tuple(draw(st.lists(st.integers(0, n_blocks - 1), max_size=6)))
    weights = draw(st.lists(VALUES, min_size=n_blocks * base,
                            max_size=n_blocks * base))
    return ActionFeatures(SparseFeatures(pairs, base), blocks,
                          n_blocks * base), np.array(weights)


@settings(max_examples=300, deadline=None)
@given(features_and_weights())
def test_dot_over_blocks_equals_each_block_summed_left_to_right(case):
    f, w = case
    base = f.shared.dimension
    want = [functools.reduce(operator.add, [w[b * base + i] * v
                                            for i, v in f.shared.pairs], 0)
            for b in f.blocks]
    got = sparse.dot(memoryview(w), f.shared, f.blocks)
    assert bits(got) == bits(want)
    assert bits(f.scores(w)) == bits(want)
    for b in set(f.blocks):
        assert bits(sparse.dot(memoryview(w), f.shared, (b,))) == \
            bits([want[f.blocks.index(b)]])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12),
       st.lists(st.integers(-3, 5), max_size=4))
def test_fits_is_every_block_inside_the_dimension(base, dimension, blocks):
    f = ActionFeatures(SparseFeatures(((0, 1.0),), base), tuple(blocks),
                       dimension)
    assert f.fits == all(0 <= b and (b + 1) * base <= dimension
                         for b in blocks)
    if not f.fits:
        with pytest.raises(L2SError, match="outside weights"):
            f.scores(np.zeros(dimension))


def test_feature_objects_hold_no_instance_dict():
    # the feature caches hold many of them: slots, and `fits` is no field
    # of equality, so features equal in content compare equal
    f = ActionFeatures(SparseFeatures(((0, 1.0),), 2), (0, 1), 4)
    for obj in (f, f.shared):
        assert not hasattr(obj, "__dict__")
    assert f == ActionFeatures(SparseFeatures(((0, 1.0),), 2), (0, 1), 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.fits = False
