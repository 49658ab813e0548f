"""Online roll-in / roll-out training loop.

For each structured example: roll in with the chosen roll-in policy to
every decision point, try every one-step deviation, complete each with
the roll-out policy, and turn the resulting end-state losses into one
cost-sensitive example per decision point (costs are losses minus their
minimum). The T examples are then fed to the online learner in decision
order, and the updated policy snapshot is appended to the history.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import core, rng
from .cslearn import CostSensitiveExample, CostSensitiveLearner
from .errors import BadConfig, NonFiniteCost, NoPolicies

ROLL_IN_CHOICES = ("reference", "learned")
ROLL_OUT_CHOICES = ("reference", "learned", "mixture")


@dataclass
class RolloutPlan:
    """Strategy knobs for one training run."""

    roll_in: str = "learned"
    roll_out: str = "mixture"
    beta: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.roll_in not in ROLL_IN_CHOICES:
            raise BadConfig(f"roll_in must be one of {ROLL_IN_CHOICES}")
        if self.roll_out not in ROLL_OUT_CHOICES:
            raise BadConfig(f"roll_out must be one of {ROLL_OUT_CHOICES}")
        if not 0.0 <= self.beta <= 1.0:
            raise BadConfig(f"beta {self.beta} outside [0, 1]")


def extract_costs(rollout_losses):
    """Shift rollout losses so the best action has cost exactly 0.

    The same array as `losses - losses.min()` over float64 numpy arrays,
    computed on Python floats.
    """
    losses = [float(x) for x in rollout_losses]
    if not losses:
        raise NonFiniteCost("empty loss vector")
    if not all(map(math.isfinite, losses)):
        raise NonFiniteCost(f"losses {np.array(losses)}")
    low = min(losses)
    if low == 0.0 and any(math.copysign(1.0, x) < 0.0
                          for x in losses if x == 0.0):
        # -0.0 - low depends on the sign of a zero low, and which of
        # mixed-sign zeros numpy's min returns depends on its reduction
        low = float(np.min(losses))
    return np.array([x - low for x in losses])


def complete_deviation(task, state, action, plan, reference, learned,
                       generator):
    """Take `action` at `state`, then finish the trajectory with the
    policy `plan.roll_out` picks: the reference, the learned policy, or
    for the mixture the reference with probability `plan.beta`, else the
    learned policy, from one `generator.random()` per roll-out. Returns
    (end state, roll-out policy)."""
    if plan.roll_out == "reference":
        policy = reference
    elif plan.roll_out == "learned":
        policy = learned
    else:
        policy = reference if generator.random() < plan.beta else learned
    nxt = task.transition(state, action)
    end = core.execute(task, policy, nxt, task.horizon - state.depth - 1)
    return end, policy


class Trainer:
    """Mutable training state: learner, policy history and RNG streams."""

    def __init__(self, dimension, plan, eta0=0.5, record_history=True):
        self.plan = plan
        self.learner = CostSensitiveLearner(dimension, eta0)
        self.record_history = record_history
        # history[0] is the untrained initial policy
        self.history = [self.learner.weights.copy()]
        self.examples_seen = 0
        self.mixture_rng = rng.substream(plan.seed, rng.MIXTURE)

    def process_example(self, task, reference=None):
        """Run one structured example through the loop; returns diagnostics."""
        if reference is None:
            reference = task.reference_policy()  # may raise MissingGold
        # The learned policy reads the live weights, not a copy: no update
        # runs until every roll-out of this instance is done, so it stays
        # frozen for the whole instance, as LinearPolicy's memo needs. It
        # lives for this instance only, and so do the features it keeps.
        learned = core.LinearPolicy(self.learner.weights)
        roll_in = reference if self.plan.roll_in == "reference" else learned

        # one roll-in pass collecting the state at every decision point and
        # its features, built once per feature key through `learned`, whose
        # roll-in and roll-out choices then read them instead of building
        states = [task.start_state()]
        features = [learned.features(task, states[0])]
        for _ in range(task.horizon - 1):
            s = states[-1]
            states.append(task.transition(s, roll_in.choose(task, s)))
            features.append(learned.features(task, states[-1]))

        examples = []
        diag_actions, diag_costs = [], []
        for s_t, feats in zip(states, features):
            losses = []
            for a in range(task.action_count(s_t)):
                end, _ = complete_deviation(task, s_t, a, self.plan, reference,
                                            learned, self.mixture_rng)
                losses.append(core.end_loss(task, end))
            costs = extract_costs(losses)
            examples.append(CostSensitiveExample(feats, costs))
            diag_costs.append(costs.tolist())
            diag_actions.append(core.argmin(losses))

        for ex in examples:
            self.learner.update(ex)
        self.examples_seen += 1
        if self.record_history:
            self.history.append(self.learner.weights.copy())

        diagnostics = {
            "instance": self.examples_seen,
            "best_actions": diag_actions,
            "cost_vectors": diag_costs,
        }
        return examples, diagnostics

    def post_update_loss(self, examples):
        """Mean cost of the current weights' prediction on `examples`."""
        return float(np.mean([
            float(ex.costs[self.learner.predict(ex)]) for ex in examples
        ])) if examples else 0.0


class AveragedPolicy:
    """Online-to-batch average: sample one historical policy per trajectory."""

    def __init__(self, snapshots, generator):
        if not snapshots:
            raise NoPolicies("empty snapshot pool")
        self.snapshots = snapshots
        self.generator = generator

    def sample(self):
        i = int(self.generator.integers(len(self.snapshots)))
        return core.LinearPolicy(self.snapshots[i])
