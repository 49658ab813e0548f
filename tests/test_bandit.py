"""Epsilon-greedy structured bandit: estimates, updates, purity."""

import numpy as np
import pytest

from l2s import bandit, core, rng
from l2s.errors import L2SError
from l2s.theory import shared_feature_chooser, two_level_chooser
from l2s.tasks import SequenceTask, gen_sequences
from l2s.theory.exact import ExactModelTask


def scaled_model(scale=0.01):
    """Fixture space with losses scaled into [0, 1] for bandit use."""
    m = two_level_chooser()
    m.losses = {k: v * scale for k, v in m.losses.items()}
    return m


def run_steps(state, task, reference, rounds):
    outcomes = []
    oracle = lambda end: core.end_loss(task, end)
    for _ in range(rounds):
        state, out = bandit.bandit_step(state, task, oracle, reference)
        outcomes.append(out)
    return state, outcomes


def test_importance_weighted_costs():
    assert list(bandit.importance_weighted_costs(3, 2, 0.5)) == [0, 0, 1.5]
    assert list(bandit.importance_weighted_costs(2, 0, 1.0)) == [2.0, 0.0]


def test_always_explore_grows_pool():
    task = ExactModelTask(scaled_model())
    ref = task.reference_policy()
    state = bandit.BanditState(task.dimension, epsilon=1.0, seed=0)
    state, outcomes = run_steps(state, task, ref, 20)
    assert all(o.mode == "explored" for o in outcomes)
    assert state.n_explore == 20
    assert len(state.explored_policies) == 21
    with pytest.raises(AttributeError):  # read from the pool, not set
        state.n_explore = 0
    for o in outcomes:
        rec = o.exploration_record
        assert rec is not None
        assert 0 <= rec["t"] < task.horizon
        assert 0 <= rec["action"] < rec["k"]


def test_explore_rounds_match_exploration_step():
    seed = 7
    tasks = [SequenceTask(toks, tags, 3, normalize_loss=True)
             for toks, tags in gen_sequences(5, seed=3, tag_count=3)]
    state = bandit.BanditState(tasks[0].dimension, epsilon=1.0, seed=seed)
    # its streams and plan are the session's; it never updates
    replay = bandit.BanditState(tasks[0].dimension, epsilon=1.0, seed=seed)
    kinds = set()
    for r in range(20):
        task = tasks[r % len(tasks)]
        oracle = lambda end: core.end_loss(task, end)
        latest = core.LinearPolicy(state.learner.weights.copy())
        state, out = bandit.bandit_step(
            state, task, oracle, task.reference_policy("bad", seed=seed))
        assert out.mode == "explored"
        replay.explore_rng.random()  # the epsilon coin bandit_step draws first
        features, end, record = bandit.exploration_step(
            replay, task, latest, task.reference_policy("bad", seed=seed),
            oracle)
        assert record == out.exploration_record
        assert len(features) == record["k"]
        assert task.decode(end) == out.prediction
        assert 0.0 <= record["loss"] <= 1.0
        kinds.add(record["rollout"])
    assert kinds == {"reference", "learned"}
    assert state.learner.weights.any()


def test_exploit_rounds_draw_pool_index_from_averaging_stream():
    seed = 5
    tasks = [SequenceTask(toks, tags, 3, normalize_loss=True)
             for toks, tags in gen_sequences(5, seed=3, tag_count=3)]
    state = bandit.BanditState(tasks[0].dimension, epsilon=0.5, seed=seed)
    pool = [np.zeros(tasks[0].dimension)]  # kept by hand, explored rounds only
    exploited = []
    for r in range(50):
        task = tasks[r % len(tasks)]
        state, out = bandit.bandit_step(
            state, task, lambda end: core.end_loss(task, end),
            task.reference_policy("bad", seed=seed))
        if out.mode == "explored":
            pool.append(state.learner.weights.copy())
        else:
            exploited.append((task, len(pool), out.prediction))
    assert len(pool) == len(state.explored_policies)
    assert all(np.array_equal(a, b) for a, b in zip(pool, state.explored_policies))

    def decode(task, weights):
        pol = core.LinearPolicy(weights)
        return task.decode(core.execute(task, pol, task.start_state(), task.horizon))

    average_rng = rng.substream(seed, rng.AVERAGING)
    telling = 0  # rounds where another pool index would predict otherwise
    for task, size, prediction in exploited:
        i = int(average_rng.integers(size))
        assert decode(task, pool[i]) == prediction
        telling += any(decode(task, w) != prediction for w in pool[:size])
    assert len(exploited) >= 15 and telling >= 10


def test_never_explore_never_mutates():
    task = ExactModelTask(scaled_model())
    ref = task.reference_policy()
    state = bandit.BanditState(task.dimension, epsilon=0.0, seed=0)
    before = state.learner.weights.copy()
    state, outcomes = run_steps(state, task, ref, 20)
    assert all(o.mode == "exploited" for o in outcomes)
    assert all(o.exploration_record is None for o in outcomes)
    assert state.n_explore == 0
    assert np.array_equal(state.learner.weights, before)


def test_zero_loss_leaves_zero_weights_unchanged():
    m = scaled_model()
    m.losses = {k: 0.0 for k in m.losses}
    task = ExactModelTask(m)
    state = bandit.BanditState(task.dimension, epsilon=1.0, seed=0)
    state, _ = run_steps(state, task, task.reference_policy(), 10)
    assert np.array_equal(state.learner.weights, np.zeros(task.dimension))


def test_loss_range_enforced_not_clamped():
    task = ExactModelTask(two_level_chooser())  # losses up to 100
    state = bandit.BanditState(task.dimension, epsilon=1.0, seed=4)
    with pytest.raises(L2SError, match="oracle returned"):
        # keep stepping until a rollout hits a loss > 1
        run_steps(state, task, task.reference_policy(), 50)


def test_exploration_count_concentrates():
    task = ExactModelTask(scaled_model())
    ref = task.reference_policy()
    state = bandit.BanditState(task.dimension, epsilon=0.1, seed=1)
    state, _ = run_steps(state, task, ref, 10_000)
    # binomial(1e4, 0.1): 3 sigma = 90
    assert abs(state.n_explore - 1000) <= 90


def test_unbiased_cost_estimate():
    # frozen latest policy: Monte Carlo mean of the one-hot estimate must
    # approach the enumerated mixture expectation for every action
    model = shared_feature_chooser(0.1)
    task = ExactModelTask(model)
    weights = np.zeros(task.dimension)
    for beta in (0.0, 1.0):
        for action in (0, 1):
            mc, exact, sd = bandit.unbiasedness_probe(
                model, weights, action, trials=20_000, beta=beta, seed=2)
            se = sd / np.sqrt(20_000)
            assert abs(mc - exact) <= 4 * se + 1e-12


def test_probe_matches_when_mixture_components_equal():
    # when the latest policy equals the reference, beta is irrelevant
    model = shared_feature_chooser(0.1)
    task = ExactModelTask(model)
    # weights realizing the reference's choices: a at the root, c at mids
    w = np.zeros(task.dimension)
    w[task.feature_index[(("a", "b"), "b")]] = 1.0
    w[task.feature_index[(("c", "d"), "d")]] = 1.0
    vals = []
    for beta in (0.0, 1.0):
        _, exact, _ = bandit.unbiasedness_probe(model, w, 0, trials=10,
                                                beta=beta, seed=0)
        vals.append(exact)
    assert vals[0] == pytest.approx(vals[1])
