"""Epsilon-greedy structured contextual bandit.

Each round either explores (probability epsilon): roll in with the
latest explored policy to a uniformly random depth, take a uniformly
random action there, complete the trajectory with the mixture roll-out,
observe a single loss in [0, 1] and update on the importance-weighted
one-hot cost vector K * loss * 1[a = a_t]; or exploits: follow a policy
drawn uniformly from the explored pool and report its prediction.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import core, rng
from .cslearn import CostSensitiveExample
from .errors import L2SError
from .theory import exact as ex
from .trainer import AveragedPolicy, RolloutPlan, Trainer, complete_deviation


@dataclass
class BanditOutcome:
    mode: str  # "explored" | "exploited"
    prediction: object
    observed_loss: float
    exploration_record: dict = None


class BanditState(Trainer):
    """Mutable bandit session: a learned roll-in, mixture roll-out
    Trainer, its epsilon, and its exploration and averaging streams."""

    def __init__(self, dimension, epsilon=0.1, beta=0.5, seed=0, eta0=0.5):
        if not 0.0 <= epsilon <= 1.0:
            raise L2SError(f"epsilon {epsilon} outside [0, 1]")
        super().__init__(dimension, RolloutPlan("learned", "mixture", beta,
                                                seed), eta0)
        self.epsilon = epsilon
        self.explore_rng = rng.substream(seed, rng.EXPLORATION)
        self.average_rng = rng.substream(seed, rng.AVERAGING)

    @property
    def explored_policies(self):
        """The history: the initial policy, then one per explore round."""
        return self.history

    @property
    def n_explore(self):
        """Explore rounds so far."""
        return self.examples_seen


def importance_weighted_costs(k, taken, loss):
    """K * loss on the explored action, zero elsewhere."""
    c = [0.0] * k
    c[taken] = k * loss
    return c


def bandit_step(state, task, loss_oracle, reference):
    """One bandit round. `loss_oracle` maps an end state to a loss in [0, 1].

    The reference policy must not peek at gold labels; the oracle is the
    only feedback channel.
    """
    if state.explore_rng.random() < state.epsilon:
        return _explore(state, task, loss_oracle, reference)
    policy = AveragedPolicy(state.history, state.average_rng).sample()
    traj_end = core.execute(task, policy, task.start_state(), task.horizon)
    loss = _checked_loss(loss_oracle, traj_end)
    return state, BanditOutcome(mode="exploited",
                                prediction=task.decode(traj_end),
                                observed_loss=loss)


def _checked_loss(loss_oracle, end_state):
    loss = float(loss_oracle(end_state))
    if not 0.0 <= loss <= 1.0:
        raise L2SError(f"oracle returned {loss}")
    return loss


def exploration_step(state, task, latest, reference, loss):
    """One exploration draw; returns (features of s_t, end state, record).

    Rolls in with `latest` to a uniform depth t, takes a uniform action
    a_t among the k blocks of `task.action_features(s_t)` (t and a_t both
    from `state.explore_rng`), completes with `state.plan`'s mixture of
    `reference` and `latest` (one draw from `state.mixture_rng`) and
    records t, a_t, k, `loss(end)`, the roll-out kind and the weighted
    costs.
    """
    t = int(state.explore_rng.integers(task.horizon))
    s_t = core.execute(task, latest, task.start_state(), t)
    features = task.action_features(s_t)
    k = len(features)
    a_t = int(state.explore_rng.integers(k))

    end, out_policy = complete_deviation(task, s_t, a_t, state.plan,
                                         reference, latest, state.mixture_rng)
    observed = loss(end)
    return features, end, {
        "t": t, "action": a_t, "k": k, "loss": observed,
        "rollout": "reference" if out_policy is reference else "learned",
        "costs": importance_weighted_costs(k, a_t, observed)}


def _explore(state, task, loss_oracle, reference):
    # the latest policy reads the live weights, not a copy: the update
    # runs only after its roll-in and roll-out are done
    features, end, record = exploration_step(
        state, task, core.LinearPolicy(state.learner.weights), reference,
        partial(_checked_loss, loss_oracle))
    state.learn([CostSensitiveExample(features, record["costs"])])
    return state, BanditOutcome(mode="explored",
                                prediction=task.decode(end),
                                observed_loss=record["loss"],
                                exploration_record=record)


def unbiasedness_probe(model, latest_weights, action, trials, beta=0.5,
                       seed=0):
    """Monte Carlo mean of the importance-weighted cost of `action` versus
    the exact expectation over random depth and rollout mixture.

    The latest policy is frozen (no updates) so repeated exploration
    rounds are identically distributed.
    """
    if trials < 2:
        raise L2SError(f"trials {trials} must be at least 2")
    task = ex.ExactModelTask(model)
    ref_exact = ex.reference_policy(model)
    latest_exact = task.learned_slot_policy(latest_weights)
    T = model.horizon

    # exact side: mean of Q^mix(s, action) over the latest policy's s_0..s_T-1
    exact_value = 0.0
    for s in ex.trajectory(model, latest_exact, model.start)[:T]:
        if action >= len(model.edges[s]):
            continue  # action not live here contributes zero
        q = (beta * ex.exact_Q(model, ref_exact, s, action)
             + (1 - beta) * ex.exact_Q(model, latest_exact, s, action))
        exact_value += q / T
    # simulation side: the bandit's own exploration step, never updating
    latest = core.LinearPolicy(latest_weights)
    state = BanditState(task.dimension, beta=beta, seed=seed)
    loss = partial(core.end_loss, task)
    values = np.empty(trials)
    for i in range(trials):
        _, _, record = exploration_step(state, task, latest, ref_exact, loss)
        # an action the state lacks counts 0
        values[i] = record["costs"][action] if action < record["k"] else 0.0
    return float(values.mean()), exact_value, float(values.std(ddof=1))
