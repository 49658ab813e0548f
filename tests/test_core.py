"""Search-space abstraction, linear policies, trajectory execution."""

import numpy as np
import pytest

from l2s import core
from l2s.errors import (
    EmptyActionSet,
    HorizonExceeded,
    NoLegalAction,
    NotTerminal,
)
from l2s.sparse import ActionFeatures, SparseFeatures
from l2s.tasks import SequenceTask


def tiny_task():
    return SequenceTask(["aa", "bb", "cc"], [0, 1, 2], tag_count=3)


def test_state_ref_frozen_and_hashable():
    s = core.StateRef(1, 0, ())
    assert s == core.StateRef(1, 0, ())
    assert hash(s) == hash(core.StateRef(1, 0, ()))
    with pytest.raises(AttributeError):
        s.depth = 2


def test_linear_policy_argmin():
    # scores: action0 -> w[0] = 3, action1 -> w[1] = -1 => argmin is 1
    w = np.array([3.0, -1.0])
    feats = ActionFeatures(SparseFeatures(((0, 1.0),), 1), (0, 1), 2)
    assert core.act(core.LinearPolicy(w), feats) == 1


def test_tie_breaks():
    w = np.zeros(2)
    feats = ActionFeatures(SparseFeatures(((0, 1.0),), 1), (0, 1), 2)
    assert core.act(core.LinearPolicy(w, tie_break="lowest"), feats) == 0
    assert core.act(core.LinearPolicy(w, tie_break="highest"), feats) == 1


def test_act_empty_action_set():
    with pytest.raises(EmptyActionSet):
        core.act(core.LinearPolicy(np.zeros(1)), [])


def test_execute_counts_steps():
    task = tiny_task()
    pol = core.LinearPolicy(np.zeros(task.dimension))
    s = core.execute(task, pol, task.start_state(), 2)
    assert s.depth == 2
    assert len(s.payload) == 2


def test_execute_past_horizon():
    task = tiny_task()
    pol = core.LinearPolicy(np.zeros(task.dimension))
    with pytest.raises(HorizonExceeded):
        core.execute(task, pol, task.start_state(), task.horizon + 1)


def test_terminal_state_has_no_actions():
    task = tiny_task()
    pol = core.LinearPolicy(np.zeros(task.dimension))
    end = core.execute(task, pol, task.start_state(), task.horizon)
    assert task.action_count(end) == 0


def test_end_loss_requires_terminal():
    task = tiny_task()
    with pytest.raises(NotTerminal):
        core.end_loss(task, task.start_state())


def test_run_trajectory_records_everything():
    task = tiny_task()
    pol = core.LinearPolicy(np.zeros(task.dimension))  # ties -> tag 0 always
    traj = core.run_trajectory(task, pol)
    assert len(traj.steps) == task.horizon
    assert traj.end_state.depth == task.horizon
    assert [st.action for st in traj.steps] == [0, 0, 0]
    # predictions (0,0,0) vs gold (0,1,2): Hamming distance 2
    assert traj.end_loss == 2.0


def test_no_legal_action_error():
    class Stuck(SequenceTask):
        def action_count(self, state):
            return 0

    task = Stuck(["aa"], [0], tag_count=2)
    pol = core.LinearPolicy(np.zeros(task.dimension))
    with pytest.raises(NoLegalAction):
        core.execute(task, pol, task.start_state(), 1)
