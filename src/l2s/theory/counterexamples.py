"""Executable failure demonstrations for bad roll-in / roll-out choices.

Both demos run the actual training loop on the small fixture spaces and
then prove the failure by enumeration: the reference roll-in demo shows
that zero cost-sensitive regret coexists with a terrible deployed policy,
and the reference roll-out demo shows convergence to a policy whose best
one-step deviation is radically better.
"""

from dataclasses import dataclass, field

from ..trainer import RolloutPlan
from . import exact
from .bounds import run_training
from .exact import (
    TablePolicy,
    enumerate_policies,
    exact_J,
)


def _expected_example_cost(model, task, policy, example):
    """Expected cost a (possibly stochastic) class policy pays on an example."""
    sig, _ = task.feature_owner(example.per_action_features.blocks[0])
    dist = policy.slot_distribution(model, _any_state_with_sig(model, sig))
    return sum(p * float(example.costs[slot]) for slot, p in dist)


def _any_state_with_sig(model, sig):
    for s in model.nonterminal_states():
        if model.signature(s) == sig:
            return s
    raise KeyError(sig)


class _UniformAt(exact.ExactPolicy):
    """Follows a base policy except at one signature, where it is uniform."""

    def __init__(self, base, sig):
        self.base = base
        self.sig = sig

    def slot_distribution(self, model, state):
        sig = model.signature(state)
        if sig == self.sig:
            p = 1.0 / len(sig)
            return [(i, p) for i in range(len(sig))]
        return self.base.slot_distribution(model, state)


@dataclass
class RollinFailureReport:
    visited_signatures: set
    unvisited_signatures: set
    zero_regret_policies: list
    J_ref: float
    worst_zero_regret_J: float
    worst_policy: object
    uniform_at_unvisited_J: float
    inseparable_signatures: list = field(default_factory=list)


def reference_rollin_failure(model, rounds=40, tie_break="lowest", seed=0):
    """Roll in and out with the reference; audit what the learner saw.

    Returns which signatures ever produced an example, the set of class
    policies with zero cumulative cost on the generated stream, and the
    deployed loss of the worst such policy.
    """
    plan = RolloutPlan(roll_in="reference", roll_out="reference", seed=seed)
    trainer, task, _, stream = run_training(model, plan, rounds,
                                            tie_break=tie_break)
    visited = set()
    for ex in stream:
        sig, _ = task.feature_owner(ex.per_action_features.blocks[0])
        visited.add(sig)
    all_sigs = set(model.signatures())

    ref = task.reference_policy()
    J_ref = exact_J(model, ref)
    zero = []
    for pol in enumerate_policies(model):
        total = sum(_expected_example_cost(model, task, pol, ex) for ex in stream)
        if total == 0.0:
            zero.append(pol)
    worst = max(zero, key=lambda p: exact_J(model, p))
    worst_J = exact_J(model, worst)

    # deployed loss when the unvisited decision is left untrained (uniform)
    unvisited = all_sigs - visited
    uniform_J = worst_J
    if unvisited:
        sig = next(iter(unvisited))
        uniform_J = exact_J(model, _UniformAt(worst, sig))

    inseparable = [sig for sig in all_sigs if len(set(sig)) < len(sig)]
    return RollinFailureReport(
        visited_signatures=visited,
        unvisited_signatures=unvisited,
        zero_regret_policies=zero,
        J_ref=J_ref,
        worst_zero_regret_J=worst_J,
        worst_policy=worst,
        uniform_at_unvisited_J=uniform_J,
        inseparable_signatures=inseparable,
    )


@dataclass
class RolloutFailureReport:
    converged_policy: object
    J_learned: float
    best_deviation_J: float
    deviation_gap: float
    mixture_J: float


def one_step_deviations(model, policy):
    """All policies differing from `policy` at exactly one signature."""
    out = []
    base = {sig: _chosen_label(model, policy, sig) for sig in model.signatures()}
    for sig in model.signatures():
        for label in sorted(set(sig)):
            if label == base[sig]:
                continue
            choices = dict(base)
            choices[sig] = label
            out.append(TablePolicy(choices))
    return out


def _chosen_label(model, policy, sig):
    state = _any_state_with_sig(model, sig)
    slot = policy.slot_distribution(model, state)[0][0]
    return sig[slot]


def reference_rollout_failure(model, rounds=500, beta=0.5, seed=0):
    """Roll-out with the reference converges to a locally dominated policy.

    Runs learned roll-in with reference roll-out, reports the converged
    policy, its deployed loss and its best one-step deviation, then the
    contrast run with a mixture roll-out.
    """
    plan = RolloutPlan(roll_in="learned", roll_out="reference", seed=seed)
    _, _, trace, _ = run_training(model, plan, rounds)
    final = trace[-1]
    J_learned = exact_J(model, final)
    best_dev = min(exact_J(model, p) for p in one_step_deviations(model, final))

    mix_plan = RolloutPlan(roll_in="learned", roll_out="mixture",
                           beta=beta, seed=seed)
    _, _, mix_trace, _ = run_training(model, mix_plan, rounds)
    mixture_J = exact_J(model, mix_trace[-1])
    return RolloutFailureReport(
        converged_policy=final,
        J_learned=J_learned,
        best_deviation_J=best_dev,
        deviation_gap=J_learned - best_dev,
        mixture_J=mixture_J,
    )
