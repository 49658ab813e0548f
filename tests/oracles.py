"""Independent oracles that only the tests read."""

import math

from l2s import rng
from l2s.errors import L2SError
from l2s.experiment import make_task
from l2s.theory.snake import neighbors


def is_induced_path(path, dim):
    """Every pair of non-consecutive vertices is at Hamming distance >= 2."""
    for i, u in enumerate(path):
        for j in range(i + 1, len(path)):
            d = bin(u ^ path[j]).count("1")
            if j == i + 1:
                if d != 1:
                    return False
            elif d < 2:
                return False
    return True


def longest_snake_bruteforce(dim):
    """Independent oracle: exhaustive search without the dimension-order
    pruning used by longest_snake.

    Tries every start vertex for dim <= 4; at dim 5 only vertex 0 (valid
    because the hypercube is vertex-transitive).
    """
    if dim > 5:
        raise L2SError("brute-force oracle limited to dimension 5")
    best = []

    def extend(path, on_path):
        nonlocal best
        if len(path) > len(best):
            best = list(path)
        blocked = set()
        for u in path[:-1]:
            blocked.update(neighbors(u, dim))
        for nxt in neighbors(path[-1], dim):
            if nxt in on_path or nxt in blocked:
                continue
            path.append(nxt)
            on_path.add(nxt)
            extend(path, on_path)
            on_path.remove(nxt)
            path.pop()

    starts = range(1 << dim) if dim <= 4 else (0,)
    for start in starts:
        extend([start], {start})
    return best


def lols(dataset, plan, passes, quality="optimal", eta0=0.5, seed=None):
    """The weights `experiment.train` ends with, as a list of floats,
    computed the way the paper's Algorithm 1 reads, from task methods and
    `rng` substreams only.

    Per pass, a shuffled order of the instances. Per instance: roll in
    to every decision point with the reference or the frozen learned
    policy; at each one, try every action, finish each with the roll-out
    policy (for the mixture, the reference with probability beta, one
    coin per roll-out) to the horizon, and shift the end losses to a
    minimum of 0; then one CSOAA step per decision point, in order, with
    step size eta0 / sqrt(m) at the m-th step. Every sum runs left to
    right from 0.
    """
    if seed is None:
        seed = plan.seed
    tasks = [make_task(dataset, i) for i in range(len(dataset.records))]
    refs = [t.reference_policy(quality, seed=seed) for t in tasks]
    w = [0.0] * tasks[0].dimension
    coins = rng.substream(plan.seed, rng.MIXTURE)
    shuffles = rng.substream(seed, rng.DATA)
    orders = [shuffles.permutation(len(tasks)) for _ in range(passes)]
    steps = 0

    def score(feats, block):
        base, total = feats.shared.dimension, 0.0
        for i, v in feats.shared.pairs:
            total += w[block * base + i] * v
        return total

    def learned(task, state):
        feats = task.action_features(state)
        scores = [score(feats, b) for b in feats.blocks]
        return scores.index(min(scores))

    for order in orders:
        for i in order:
            task, ref = tasks[i], refs[i].choose
            roll_in = ref if plan.roll_in == "reference" else learned
            states = [task.start_state()]
            while len(states) < task.horizon:
                states.append(task.transition(
                    states[-1], roll_in(task, states[-1])))
            examples = []
            for state in states:
                feats = task.action_features(state)
                losses = []
                for a in range(len(feats.blocks)):
                    if plan.roll_out == "mixture":
                        out = ref if coins.random() < plan.beta else learned
                    else:
                        out = ref if plan.roll_out == "reference" else learned
                    end = task.transition(state, a)
                    while end.depth < task.horizon:
                        end = task.transition(end, out(task, end))
                    losses.append(task.terminal_loss(end))
                examples.append((feats, [x - min(losses) for x in losses]))
            for feats, costs in examples:
                steps += 1
                lr = eta0 / math.sqrt(steps)
                base = feats.shared.dimension
                for b, c in zip(feats.blocks, costs):
                    g = 2.0 * lr * (score(feats, b) - c)
                    for j, v in feats.shared.pairs:
                        w[b * base + j] -= g * v
    return w
