"""Search-space abstraction, linear policies, and trajectory execution.

A task instance induces a search space: a start state, per-state action
sets, a deterministic transition function, per-action feature vectors and
a loss on end states. All trajectories from the start state terminate in
exactly `horizon` actions.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyActionSet,
    HorizonExceeded,
    NoLegalAction,
    NotTerminal,
)
from . import sparse


@dataclass(frozen=True)
class StateRef:
    """A state in a task's search space.

    `payload` is task-owned and encodes the input plus all prior actions;
    replaying the same action sequence reproduces an identical payload.
    """

    instance_id: object
    depth: int
    payload: object


class SearchTask(ABC):
    """Generative interface for a per-example search space."""

    #: trajectory length; every rollout from the start takes exactly this many actions
    horizon: int
    #: ambient feature dimension shared with the learner
    dimension: int
    #: upper bound on actions per state
    action_arity_bound: int

    @abstractmethod
    def start_state(self) -> StateRef:
        ...

    @abstractmethod
    def action_count(self, state) -> int:
        """Number of live actions at `state` (0 at terminal states)."""

    @abstractmethod
    def transition(self, state, action) -> StateRef:
        ...

    @abstractmethod
    def action_features(self, state):
        """The state's sparse.ActionFeatures: one block id per live
        action, in action order."""

    @abstractmethod
    def terminal_loss(self, state) -> float:
        """Loss of an end state. Only called at depth == horizon."""

    @abstractmethod
    def reference_policy(self, quality="optimal", seed=0):
        """A policy derived from gold labels (or seeded noise for 'bad')."""

    def decode(self, state):
        """Task-level structured output at an end state."""
        return state.payload


class Policy(ABC):
    """Action selector. Pure function of (task, state) up to its own RNG."""

    @abstractmethod
    def choose(self, task, state) -> int:
        ...


def act(policy, features):
    """Argmin of `features.scores(policy.weights)` (an ActionFeatures)."""
    if not features:
        raise EmptyActionSet("no actions to choose from")
    return argmin(features.scores(policy.weights), policy.tie_break)


def argmin(scores, tie_break):
    """Index of the smallest score; ties go to the "lowest" or "highest" index."""
    best = min(scores)
    idx = [i for i, s in enumerate(scores) if s == best]
    return idx[-1] if tie_break == "highest" else idx[0]


class LinearPolicy(Policy):
    """Scores each action through its ActionFeatures and takes the argmin.

    Ties are broken by `tie_break`: "lowest" (default) or "highest"
    action index.
    """

    def __init__(self, weights, tie_break="lowest"):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.tie_break = tie_break

    def choose(self, task, state):
        return act(self, task.action_features(state))


@dataclass
class TrajectoryStep:
    state: StateRef
    action: int
    per_action_features: sparse.ActionFeatures


@dataclass
class Trajectory:
    steps: list = field(default_factory=list)
    end_state: StateRef = None
    end_loss: float = 0.0


def execute(task, policy, from_state, steps):
    """Run `policy` for exactly `steps` transitions and return the new state."""
    if from_state.depth + steps > task.horizon:
        raise HorizonExceeded(
            f"{steps} steps from depth {from_state.depth} exceeds horizon {task.horizon}"
        )
    s = from_state
    for _ in range(steps):
        if task.action_count(s) == 0:
            raise NoLegalAction(f"no legal action at depth {s.depth}")
        s = task.transition(s, policy.choose(task, s))
    return s


def end_loss(task, terminal):
    """Loss of an end state; errors on non-terminal states."""
    if terminal.depth < task.horizon:
        raise NotTerminal(f"depth {terminal.depth} < horizon {task.horizon}")
    return task.terminal_loss(terminal)


def run_trajectory(task, policy):
    """Execute `policy` from the start state, recording every step."""
    traj = Trajectory()
    s = task.start_state()
    for _ in range(task.horizon):
        if task.action_count(s) == 0:
            raise NoLegalAction(f"no legal action at depth {s.depth}")
        feats = task.action_features(s)
        a = policy.choose(task, s)
        traj.steps.append(TrajectoryStep(s, a, feats))
        s = task.transition(s, a)
    traj.end_state = s
    traj.end_loss = end_loss(task, s)
    return traj
