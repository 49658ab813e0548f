"""Search-space abstraction, linear policies, and trajectory execution.

A task instance induces a search space: a start state, a deterministic
transition function, per-state action features whose blocks are the
state's actions, and a loss on end states. All trajectories from the
start state terminate in exactly `horizon` actions.
"""

from abc import ABC, abstractmethod
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import L2SError


class StateRef(NamedTuple):
    """A state in a task's search space: an immutable, hashable tuple.

    `payload` is task-owned and encodes the input plus all prior actions;
    replaying the same action sequence reproduces an equal payload.
    """

    depth: int
    payload: object


class SearchTask(ABC):
    """Generative interface for a per-example search space."""

    #: trajectory length; every rollout from the start takes exactly this many actions
    horizon: int
    #: ambient feature dimension shared with the learner
    dimension: int

    @abstractmethod
    def start_state(self) -> StateRef:
        ...

    @abstractmethod
    def transition(self, state, action) -> StateRef:
        ...

    @abstractmethod
    def action_features(self, state):
        """The state's sparse.ActionFeatures, whose blocks are its live
        actions, one block id per action, in action order. Only called
        below the horizon."""

    def feature_key(self, state):
        """A hashable key of what `action_features(state)` reads: two
        states with live actions and equal keys have equal
        ActionFeatures. The default, the state itself, always is one."""
        return state

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


REFERENCE_QUALITIES = ("optimal", "suboptimal", "bad")


class SeededReference(Policy):
    """A task's gold-derived reference of a quality and seed; subclasses
    implement only `choose`. A quality outside REFERENCE_QUALITIES is an
    L2SError here, so `choose` never meets one. `generator`, the
    (seed, REFERENCE) substream, is built at the first draw, so a
    reference that never draws builds none, and a rebuilt reference
    restarts it."""

    def __init__(self, task, quality, seed):
        if quality not in REFERENCE_QUALITIES:
            raise L2SError(
                f"reference quality {quality!r} is not one of "
                f"{REFERENCE_QUALITIES}")
        self.task = task
        self.quality = quality
        self.seed = seed
        self._generator = None

    @property
    def generator(self):
        if self._generator is None:
            self._generator = rng.substream(self.seed, rng.REFERENCE)
        return self._generator


def act(policy, features):
    """Argmin of `features.scores(policy.weights)` (an ActionFeatures)."""
    if not features:
        raise L2SError("no actions to choose from")
    return argmin(features.scores(policy.weights))


def argmin(scores):
    """Index of the smallest score; ties go to the lowest index."""
    return scores.index(min(scores))


class LinearPolicy(Policy):
    """Scores each action through its ActionFeatures and takes the argmin.

    `weights` must not change while the policy lives: `choose` memoises
    its action per `task.feature_key(state)`, so a roll-out revisiting a
    feature context is not scored again. The memo holds one task's keys
    and starts afresh when called with another task; it keeps actions
    only, as the task modules keep the ActionFeatures.
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=np.float64)
        self._task, self._choices = None, {}

    def choose(self, task, state):
        if task is not self._task:
            self._task, self._choices = task, {}
        key = task.feature_key(state)
        action = self._choices.get(key)
        if action is None:
            action = self._choices[key] = act(self, task.action_features(state))
        return action


def execute(task, policy, from_state, steps):
    """Run `policy` for exactly `steps` transitions and return the new state."""
    if from_state.depth + steps > task.horizon:
        raise L2SError(
            f"{steps} steps from depth {from_state.depth} exceeds horizon {task.horizon}"
        )
    s = from_state
    for _ in range(steps):
        s = task.transition(s, policy.choose(task, s))
    return s


def end_loss(task, terminal):
    """Loss of an end state; errors on non-terminal states."""
    if terminal.depth < task.horizon:
        raise L2SError(f"depth {terminal.depth} < horizon {task.horizon}")
    return task.terminal_loss(terminal)
