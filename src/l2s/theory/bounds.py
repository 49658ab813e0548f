"""Machine checks of the exact identities and the regret bound.

Every exact policy picks one slot per state, so its roll-in distribution
d_t is the one state at depth t on its trajectory, and an expectation
over d_t is that state's value. The telescoping difference identity and
the convex-combination regret bound with its epsilon term are sums of
exact Q values along each policy's trajectory; mixture roll-out Q values
are combined analytically (beta-weighted), never sampled.
"""

from dataclasses import dataclass

from .. import rng as rngmod
from ..trainer import Trainer
from ..errors import L2SError
from .exact import (
    ExactModel,
    ExactModelTask,
    exact_J,
    exact_Q,
    trajectory,
)


def check_difference_identity(model, policy1, policy2):
    """The difference J(p1) - J(p2) as both telescoping sums."""
    T = model.horizon
    lhs = exact_J(model, policy1) - exact_J(model, policy2)

    def telescoped(rollin, rollout):
        # T * E_{t ~ U, s ~ d_t^rollin}[...] == sum over the T decision depths
        total = 0.0
        for s in trajectory(model, rollin, model.start)[:T]:
            total += (exact_Q(model, rollout, s, policy1.slot(model, s))
                      - exact_Q(model, rollout, s, policy2.slot(model, s)))
        return total

    rhs1 = telescoped(policy1, policy2)
    rhs2 = telescoped(policy2, policy1)
    return lhs, rhs1, rhs2


@dataclass
class BoundReport:
    lhs_ref_term: float
    lhs_dev_term: float
    eps_bar: float
    rhs: float
    satisfied: bool


# slack for float rounding when the bound's two sides are compared
BOUND_TOL = 1e-9


def check_regret_bound(model, ref, trace, beta):
    """Verify the convex-combination regret bound on a finished run.

    `trace` holds the learned policy after each round (exact-evaluable).
    The averaged policy couples its draw between roll-in and roll-out, so
    every mixture expectation decomposes into per-round terms.
    """
    if not trace:
        raise L2SError("empty training trace")
    N = len(trace)
    T = model.horizon
    J_ref = exact_J(model, ref)
    J_bar = sum(exact_J(model, p) for p in trace) / N

    paths = [trajectory(model, p, model.start) for p in trace]

    # deviation term: sum_t (J_bar - min_pi (1/N) sum_i Q^i(s_t^i, pi)), the
    # minimum taken per signature, as the sum is additive across them
    dev = 0.0
    for t in range(T):
        per_sig = {}  # signature -> label -> summed weighted Q
        for path, rollout in zip(paths, trace):
            s = path[t]
            sig = model.signature(s)
            bucket = per_sig.setdefault(sig, {})
            for label in set(sig):
                q = exact_Q(model, rollout, s, sig.index(label))
                bucket[label] = bucket.get(label, 0.0) + 1.0 / N * q
        dev += J_bar - sum(min(bucket.values()) for bucket in per_sig.values())

    lhs_ref = beta * (J_bar - J_ref)
    lhs_dev = (1.0 - beta) * dev

    # epsilon: rollout Q is the analytic beta-combination
    cost_term = 0.0
    min_term = 0.0
    for path, pol in zip(paths, trace):
        for s in path[:T]:
            taken, slots = pol.slot(model, s), range(len(model.edges[s]))
            cost_term += (beta * exact_Q(model, ref, s, taken)
                          + (1 - beta) * exact_Q(model, pol, s, taken))
            min_term += (beta * min(exact_Q(model, ref, s, a) for a in slots)
                         + (1 - beta) * min(exact_Q(model, pol, s, a)
                                            for a in slots))
    eps_direct = (cost_term - min_term) / (N * T)
    rhs = T * eps_direct
    return BoundReport(
        lhs_ref_term=lhs_ref,
        lhs_dev_term=lhs_dev,
        eps_bar=eps_direct,
        rhs=rhs,
        satisfied=lhs_ref + lhs_dev <= rhs + BOUND_TOL,
    )


def run_training(model, plan, rounds):
    """Train on a single exact model for `rounds` instances, step size
    eta0 = 0.5.

    Returns (trainer, task, trace, example_stream) where trace holds the
    TablePolicy the weights induce after each round and example_stream
    every emitted cost-sensitive example.
    """
    task = ExactModelTask(model)
    trainer = Trainer(task.dimension, plan, eta0=0.5, record_history=False)
    ref = task.reference_policy()
    trace = []
    stream = []
    for _ in range(rounds):
        examples, _ = trainer.process_example(task, reference=ref)
        stream.extend(examples)
        trace.append(task.learned_slot_policy(trainer.learner.weights))
    return trainer, task, trace, stream


# random_model's shape: up to MAX_DEPTH layers of up to STATES_PER_DEPTH
# states, up to MAX_BRANCH edges per state drawn from LABEL_ALPHABET labels
# per depth, and end-state losses uniform in [0, MAX_LOSS)
MAX_DEPTH = 5
MAX_BRANCH = 3
STATES_PER_DEPTH = 3
LABEL_ALPHABET = 4
MAX_LOSS = 10.0


def random_model(generator):
    """A seeded layered model with occasional feature sharing."""
    depth = int(generator.integers(2, MAX_DEPTH + 1))
    layers = [["s0_0"]]
    for d in range(1, depth + 1):
        width = int(generator.integers(1, STATES_PER_DEPTH + 1))
        layers.append([f"s{d}_{j}" for j in range(width)])
    depths, edges, losses, ref = {}, {}, {}, {}
    for d, layer in enumerate(layers):
        for s in layer:
            depths[s] = d
    for d in range(depth):
        labels_pool = [f"L{d}_{j}" for j in range(LABEL_ALPHABET)]
        for s in layers[d]:
            k = int(generator.integers(1, MAX_BRANCH + 1))
            chosen = list(generator.choice(LABEL_ALPHABET, size=k, replace=False))
            outs = []
            for j in sorted(chosen):
                nxt = layers[d + 1][int(generator.integers(len(layers[d + 1])))]
                outs.append((labels_pool[j], nxt))
            edges[s] = outs
            ref[s] = outs[int(generator.integers(len(outs)))][0]
    for s in layers[depth]:
        losses[s] = float(generator.uniform(0.0, MAX_LOSS))
    return ExactModel(depths, edges, losses, "s0_0", ref)


def random_models(seed, count):
    g = rngmod.substream(seed, rngmod.MODELGEN)
    return [random_model(g) for _ in range(count)]
