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


def bandit(dataset, rounds, epsilon, beta=0.5, seed=0, eta0=0.5):
    """The weights an `l2s bandit` session ends with, as a list of
    floats, and each round's (mode, instance, loss, t, action, k,
    rollout), the last four None in an exploit round, computed from task
    methods, their reference policies and `rng` substreams only.

    Per round: an instance drawn from the DATA stream and a 'bad'
    reference seeded by (seed, REFERENCE, round). With probability
    epsilon (one EXPLORATION draw) the round explores: roll in with the
    current weights to a depth t, take an action a_t among the k there
    (t and a_t from EXPLORATION), finish with the reference with
    probability beta, else the current weights (one MIXTURE draw), and
    take one CSOAA step on the cost vector K * loss at a_t, zero
    elsewhere; the weights after it join the snapshots. Otherwise it
    exploits: follow a snapshot drawn from AVERAGING, the zero vector
    first among them. Every sum runs left to right from 0.
    """
    w = [0.0] * make_task(dataset, 0).dimension
    snapshots = [list(w)]
    pick = rng.substream(seed, rng.DATA)
    explore = rng.substream(seed, rng.EXPLORATION)
    coins = rng.substream(seed, rng.MIXTURE)
    average = rng.substream(seed, rng.AVERAGING)
    steps = 0

    def score(weights, feats, block):
        base, total = feats.shared.dimension, 0.0
        for i, v in feats.shared.pairs:
            total += weights[block * base + i] * v
        return total

    def follow(weights):
        def choose(task, state):
            feats = task.action_features(state)
            scores = [score(weights, feats, b) for b in feats.blocks]
            return scores.index(min(scores))
        return choose

    def walk(task, state, choose, depth):
        while state.depth < depth:
            state = task.transition(state, choose(task, state))
        return state

    records = []
    for r in range(rounds):
        i = int(pick.integers(len(dataset.records)))
        task = make_task(dataset, i, normalize_loss=True)
        ref = task.reference_policy(
            "bad", seed=rng.derive_seed(seed, rng.REFERENCE, r)).choose
        if explore.random() >= epsilon:
            weights = snapshots[int(average.integers(len(snapshots)))]
            end = walk(task, task.start_state(), follow(weights), task.horizon)
            records.append(("exploited", i, task.terminal_loss(end),
                            None, None, None, None))
            continue
        t = int(explore.integers(task.horizon))
        state = walk(task, task.start_state(), follow(w), t)
        feats = task.action_features(state)
        k = len(feats.blocks)
        taken = int(explore.integers(k))
        kind = "reference" if coins.random() < beta else "learned"
        out = ref if kind == "reference" else follow(w)
        end = walk(task, task.transition(state, taken), out, task.horizon)
        loss = task.terminal_loss(end)
        records.append(("explored", i, loss, t, taken, k, kind))
        steps += 1
        lr = eta0 / math.sqrt(steps)
        base = feats.shared.dimension
        for a, b in enumerate(feats.blocks):
            c = k * loss if a == taken else 0.0
            g = 2.0 * lr * (score(w, feats, b) - c)
            for j, v in feats.shared.pairs:
                w[b * base + j] -= g * v
        snapshots.append(list(w))
    return w, records
