"""Executable failure demonstrations for bad roll-in / roll-out choices.

Both demos run the actual training loop on the small fixture spaces and
then prove the failure by enumeration: the reference roll-in demo shows
that zero cost-sensitive regret coexists with a terrible deployed policy,
and the reference roll-out demo shows convergence to a policy whose best
one-step deviation is radically better.
"""

from dataclasses import dataclass

from ..errors import L2SError
from ..trainer import RolloutPlan
from .bounds import run_training
from .exact import (
    TablePolicy,
    enumerate_policies,
    exact_J,
)

ROLLIN_ROUNDS = 40
# the roll-out demo's training seed, and its contrast run's mixture weight
ROLLOUT_SEED = 0
MIXTURE_BETA = 0.5


def _example_cost(model, task, policy, example):
    """Cost a class policy pays on an example."""
    sig = task.feature_signature[example.per_action_features.blocks[0]]
    return float(example.costs[policy.slot(model, model.signature_state[sig])])


@dataclass
class RollinFailureReport:
    visited_signatures: set
    unvisited_signatures: set
    J_ref: float
    worst_zero_regret_J: float


def reference_rollin_failure(model):
    """Roll in and out with the reference for ROLLIN_ROUNDS rounds; audit
    what the learner saw.

    Returns which signatures ever produced an example and which never
    did, the reference's deployed loss, and the deployed loss of the
    worst class policy with zero cumulative cost on the generated stream.
    """
    plan = RolloutPlan(roll_in="reference", roll_out="reference")
    _, task, _, stream = run_training(model, plan, ROLLIN_ROUNDS)
    visited = {task.feature_signature[ex.per_action_features.blocks[0]]
               for ex in stream}

    ref = task.reference_policy()
    J_ref = exact_J(model, ref)
    zero = []
    for pol in enumerate_policies(model):
        total = sum(_example_cost(model, task, pol, ex) for ex in stream)
        if total == 0.0:
            zero.append(pol)
    return RollinFailureReport(
        visited_signatures=visited,
        unvisited_signatures=set(model.signatures()) - visited,
        J_ref=J_ref,
        worst_zero_regret_J=max(exact_J(model, p) for p in zero),
    )


@dataclass
class RolloutFailureReport:
    J_learned: float
    best_deviation_J: float
    deviation_gap: float
    mixture_J: float


def one_step_deviations(model, policy):
    """All policies differing from `policy` at exactly one signature."""
    out = []
    base = {sig: sig[policy.slot(model, state)]
            for sig, state in model.signature_state.items()}
    for sig in model.signatures():
        for label in sorted(set(sig)):
            if label == base[sig]:
                continue
            choices = dict(base)
            choices[sig] = label
            out.append(TablePolicy(choices))
    return out


def reference_rollout_failure(model, rounds=500):
    """Roll-out with the reference converges to a locally dominated policy.

    Runs learned roll-in with reference roll-out, reports the converged
    policy's deployed loss and that of its best one-step deviation, then
    the contrast run with a mixture roll-out.
    """
    if rounds < 1:
        raise L2SError(f"rounds {rounds} must be at least 1")
    plan = RolloutPlan(roll_in="learned", roll_out="reference",
                       seed=ROLLOUT_SEED)
    _, _, trace, _ = run_training(model, plan, rounds)
    final = trace[-1]
    J_learned = exact_J(model, final)
    best_dev = min(exact_J(model, p) for p in one_step_deviations(model, final))

    mix_plan = RolloutPlan(roll_in="learned", roll_out="mixture",
                           beta=MIXTURE_BETA, seed=ROLLOUT_SEED)
    _, _, mix_trace, _ = run_training(model, mix_plan, rounds)
    mixture_J = exact_J(model, mix_trace[-1])
    return RolloutFailureReport(
        J_learned=J_learned,
        best_deviation_J=best_dev,
        deviation_gap=J_learned - best_dev,
        mixture_J=mixture_J,
    )
