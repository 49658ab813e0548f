"""Search-space abstraction, linear policies, trajectory execution."""

import numpy as np
import pytest

from l2s import core, theory
from l2s.errors import L2SError
from l2s.sparse import ActionFeatures, SparseFeatures, hash_index
from l2s.tasks import (
    LabelTreeTask,
    ParseTask,
    SequenceTask,
    gen_multiclass,
    gen_sequences,
    gen_trees,
)
from l2s.theory.exact import ExactModelTask
from l2s.trainer import RolloutPlan, Trainer


def tiny_task():
    return SequenceTask(["aa", "bb", "cc"], [0, 1, 2], tag_count=3)


def test_state_ref_frozen_and_hashable():
    s = core.StateRef(0, ())
    assert s == core.StateRef(0, ())
    assert hash(s) == hash(core.StateRef(0, ()))
    with pytest.raises(AttributeError):
        s.depth = 2


def test_linear_policy_argmin():
    # scores: action0 -> w[0] = 3, action1 -> w[1] = -1 => argmin is 1
    w = np.array([3.0, -1.0])
    feats = ActionFeatures(SparseFeatures(((0, 1.0),), 1), (0, 1), 2)
    assert core.act(core.LinearPolicy(w), feats) == 1


def test_tie_breaks():
    # ties go to the lowest index: all three tie, then the last two
    feats = ActionFeatures(SparseFeatures(((0, 1.0),), 1), (0, 1, 2), 3)
    assert core.act(core.LinearPolicy(np.zeros(3)), feats) == 0
    assert core.act(core.LinearPolicy(np.array([1.0, 0.0, 0.0])), feats) == 1


def test_act_empty_action_set():
    with pytest.raises(L2SError, match="no actions to choose from"):
        core.act(core.LinearPolicy(np.zeros(1)), [])


def test_execute_counts_steps():
    task = tiny_task()
    pol = core.LinearPolicy(np.zeros(task.dimension))
    s = core.execute(task, pol, task.start_state(), 2)
    assert s.depth == 2
    assert len(task.decode(s)) == 2


def test_execute_past_horizon():
    task = tiny_task()
    pol = core.LinearPolicy(np.zeros(task.dimension))
    with pytest.raises(L2SError, match="exceeds horizon"):
        core.execute(task, pol, task.start_state(), task.horizon + 1)


def test_end_loss_requires_terminal():
    task = tiny_task()
    with pytest.raises(L2SError, match="depth 0 < horizon"):
        core.end_loss(task, task.start_state())


def test_no_legal_action_error():
    # features with no block below the horizon: execute checks no step,
    # and the policy's argmin over no action is the error
    class Stuck(SequenceTask):
        def action_features(self, state):
            return ActionFeatures(SparseFeatures((), self.base), (),
                                  self.dimension)

    task = Stuck(["aa"], [0], tag_count=2)
    pol = core.LinearPolicy(np.zeros(task.dimension))
    with pytest.raises(L2SError, match="no actions to choose from"):
        core.execute(task, pol, task.start_state(), 1)


# -- the memo of LinearPolicy.choose, keyed by SearchTask.feature_key --

def memo_tasks(kind, seed):
    """A few small instances of one task kind, all of one dimension
    except the exact models."""
    if kind == "sequence":
        return [SequenceTask(toks, tags, 4) for toks, tags in
                gen_sequences(4, seed, tag_count=4, min_len=3, max_len=6)]
    if kind == "parse":
        return [ParseTask(toks, heads) for toks, heads in gen_trees(4, seed)]
    if kind == "labeltree":
        return [LabelTreeTask(pairs, costs, 5)
                for pairs, costs in gen_multiclass(6, seed, label_count=5)]
    return [ExactModelTask(m) for m in
            [theory.shared_feature_chooser()] + theory.random_models(seed, 3)]


def visited_states(kind, seed):
    """(task, weights, states): every state that roll-in and roll-outs
    reach while training on each task, with the weights trained on it."""
    plan = RolloutPlan(roll_in="learned", roll_out="mixture", seed=seed)
    trainer = None
    out = []
    for task in memo_tasks(kind, seed):
        if trainer is None or len(trainer.learner.weights) != task.dimension:
            trainer = Trainer(task.dimension, plan, record_history=False)
        states = [task.start_state()]
        transition = task.transition

        def recording(state, action):
            states.append(transition(state, action))
            return states[-1]

        task.transition = recording
        for _ in range(2):
            trainer.process_example(task)
        del task.transition
        out.append((task, trainer.learner.weights.copy(),
                    [s for s in states if s.depth < task.horizon]))
    return out


KINDS = ("sequence", "parse", "labeltree", "exact")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_equal_feature_keys_give_equal_action_features(kind, seed):
    shared = 0  # keys that distinct states share
    for task, _, states in visited_states(kind, seed):
        by_key = {}
        for s in states:
            first = by_key.setdefault(task.feature_key(s), s)
            assert task.action_features(s) == task.action_features(first)
            shared += first != s
    # a label-tree node sits at one depth, so its key names one state
    assert shared > 0 or kind == "labeltree"


@pytest.mark.parametrize("kind", KINDS)
def test_memoised_choose_equals_act(kind):
    g = np.random.default_rng(5)
    for task, trained, states in visited_states(kind, 1):
        features = task.action_features
        calls = []
        task.action_features = lambda s: calls.append(s) or features(s)
        # all-tie zero weights, integer weights with ties between
        # distinct features, and the trained weights
        for w in (np.zeros(task.dimension),
                  np.round(g.normal(size=task.dimension)), trained):
            pol = core.LinearPolicy(w)
            calls.clear()
            for s in states:
                assert pol.choose(task, s) == core.act(
                    core.LinearPolicy(w), features(s))
            assert len(calls) == len({task.feature_key(s) for s in states})


def test_memo_starts_afresh_for_another_task():
    # both start states have key (0, None); their tokens' features differ
    a, b = SequenceTask(["x"], [0], 2), SequenceTask(["y"], [0], 2)
    assert a.feature_key(a.start_state()) == b.feature_key(b.start_state())
    w = np.zeros(a.dimension)
    w[a.base + hash_index("w=x", a.base)] = -1.0  # only a prefers tag 1
    pol = core.LinearPolicy(w)
    expected = [(a, 1), (b, 0), (a, 1), (b, 0)]
    for task, action in expected:
        assert core.act(pol, task.action_features(task.start_state())) == action
        assert pol.choose(task, task.start_state()) == action
