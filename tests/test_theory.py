"""Exact enumeration oracles, identities, bounds, and failure demos."""

import itertools

import numpy as np
import pytest

from l2s.core import LinearPolicy, StateRef, act, end_loss, execute
from l2s.errors import L2SError
from l2s.theory import (
    ExactModel,
    TablePolicy,
    check_difference_identity,
    check_regret_bound,
    enumerate_policies,
    exact_J,
    exact_Q,
    one_step_deviations,
    random_models,
    reference_policy,
    reference_rollin_failure,
    reference_rollout_failure,
    run_training,
    shared_feature_chooser,
    state_distribution,
    trajectory,
    indistinct_branch_chooser,
    two_level_chooser,
)
from l2s.theory.exact import EndLosses, ExactModelTask
from l2s.theory.snake import (
    best_neighbor_descent,
    longest_snake,
    snake_costs,
    snake_lower_bound,
)
from l2s.trainer import RolloutPlan
from oracles import is_induced_path, longest_snake_bruteforce


# -- model construction --

CHAIN = {"s": [("a", "m")], "m": [("b", "e")]}


@pytest.mark.parametrize("start,edges,losses,message", [
    ("x", CHAIN, {"e": 0.0}, "start state x has no depth"),
    ("s", {"s": [("a", "m")]}, {"e": 0.0},
     "non-terminal state m has no actions"),
    ("s", {"s": [("a", "e")], "m": [("b", "e")]}, {"e": 0.0},
     "edge s->e does not lead one depth down"),
    ("s", {"s": [("a", "m")], "m": [("b", "x")]}, {"e": 0.0},
     "edge m->x does not lead one depth down"),
    # exact_J would stop at m while a trajectory walks on past it
    ("s", CHAIN, {"m": 1.0, "e": 0.0},
     "loss on state m at depth 1, not the horizon 2"),
    ("s", CHAIN, {"e": 0.0, "x": 1.0},
     "loss on state x at depth None, not the horizon 2"),
    # a task starts its trajectories at depth 0
    ("m", CHAIN, {"e": 0.0}, "start state m at depth 1, not 0"),
], ids=["no-start", "no-actions", "skips-depth", "unlisted-state",
        "loss-above-horizon", "loss-on-unlisted-state", "start-below-root"])
def test_invalid_model_rejected_when_built(start, edges, losses, message):
    with pytest.raises(L2SError, match=message):
        ExactModel(depths={"s": 0, "m": 1, "e": 2}, edges=edges,
                   losses=losses, start=start)


def test_model_indexed_when_built():
    m = shared_feature_chooser(0.1)
    assert m.horizon == 2
    assert m.signature("s3") == ("c", "d") and m.signature("e1") == ()
    # s2 and s3 share a signature; its first state in (depth, name) order
    assert m.signature_state == {("a", "b"): "s1", ("c", "d"): "s2"}
    assert m.signatures() == [("a", "b"), ("c", "d")]


# -- exact evaluation --

def test_reference_J_on_fixtures():
    assert exact_J(two_level_chooser(),
                   reference_policy(two_level_chooser())) == 0.0
    assert exact_J(shared_feature_chooser(0.1),
                   reference_policy(shared_feature_chooser(0.1))) == 1.0


def test_exact_Q_values():
    m = shared_feature_chooser(0.1)
    ref = reference_policy(m)
    # deviating to b at the start then following the reference lands on e3
    assert exact_Q(m, ref, "s1", 1) == pytest.approx(1.1)
    assert exact_Q(m, ref, "s1", 0) == pytest.approx(1.0)
    assert exact_Q(m, ref, "s3", 1) == pytest.approx(0.0)


def test_policy_class_size_reflects_signatures():
    # distinct signatures with 2 labels each -> 2^3 policies
    assert len(enumerate_policies(two_level_chooser())) == 8
    # the root's two slots share one label, collapsing its choice to 1
    assert len(enumerate_policies(indistinct_branch_chooser())) == 4
    # the two mid states share a signature -> 2 * 2 = 4
    assert len(enumerate_policies(shared_feature_chooser(0.1))) == 4


def test_indistinct_branch_choice_takes_lowest_slot():
    m = indistinct_branch_chooser()
    pol = enumerate_policies(m)[0]
    assert pol.choices[("a", "a")] == "a"
    assert pol.slot(m, "s1") == 0


def test_state_distribution_sums_to_one():
    m = two_level_chooser()
    for pol in enumerate_policies(m):
        for t in range(m.horizon + 1):
            dist = state_distribution(m, pol, t)
            assert sum(dist.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("t", [-1, 3])
def test_state_distribution_outside_horizon_rejected(t):
    m = two_level_chooser()
    with pytest.raises(L2SError, match=rf"^t {t} outside 0\.\.2, the horizon$"):
        state_distribution(m, reference_policy(m), t)


def test_trajectory_is_the_policy_run():
    models = [two_level_chooser(), indistinct_branch_chooser(),
              shared_feature_chooser(0.1)]
    for seed in range(3):
        models.extend(random_models(seed, 20))
    for model in models:
        task = ExactModelTask(model)
        for pol in enumerate_policies(model):
            path = trajectory(model, pol, model.start)
            assert len(path) == model.horizon + 1
            assert path[0] == model.start
            for s, nxt in zip(path, path[1:]):
                assert model.edges[s][pol.slot(model, s)][1] == nxt
            for t, s in enumerate(path):
                assert execute(task, pol, task.start_state(), t) == StateRef(t, s)
                assert state_distribution(model, pol, t) == {s: 1.0}


def test_worst_policy_loss():
    m = two_level_chooser()
    worst = max(enumerate_policies(m), key=lambda p: exact_J(m, p))
    assert exact_J(m, worst) == 100.0


# -- identities and bounds --

def test_difference_identity_on_fixtures():
    m = shared_feature_chooser(0.1)
    pols = enumerate_policies(m)
    for p1 in pols:
        for p2 in pols:
            lhs, rhs1, rhs2 = check_difference_identity(m, p1, p2)
            assert lhs == pytest.approx(rhs1, abs=1e-12)
            assert lhs == pytest.approx(rhs2, abs=1e-12)


def test_difference_identity_on_random_models():
    g = np.random.default_rng(0)
    for m in random_models(1, 20):
        pols = enumerate_policies(m)
        for _ in range(5):
            p1 = pols[int(g.integers(len(pols)))]
            p2 = pols[int(g.integers(len(pols)))]
            lhs, rhs1, rhs2 = check_difference_identity(m, p1, p2)
            assert abs(lhs - rhs1) <= 1e-9
            assert abs(lhs - rhs2) <= 1e-9


def test_regret_bound_on_training_runs():
    for m in random_models(2, 10):
        for beta in (0.0, 0.5, 1.0):
            plan = RolloutPlan(roll_in="learned", roll_out="mixture",
                               beta=beta, seed=0)
            _, task, trace, _ = run_training(m, plan, 15)
            report = check_regret_bound(m, task.reference_policy(), trace,
                                        beta)
            assert report.satisfied, (m, beta, report)


def test_regret_bound_on_arbitrary_policy_sequences():
    # the bound is an algebraic consequence of the decomposition, so it
    # must hold for any policy trace, not just trained ones
    g = np.random.default_rng(3)
    for m in random_models(4, 10):
        pols = enumerate_policies(m)
        trace = [pols[int(g.integers(len(pols)))] for _ in range(7)]
        ref = reference_policy(m)
        for beta in (0.0, 0.25, 1.0):
            report = check_regret_bound(m, ref, trace, beta)
            assert report.satisfied


def test_regret_bound_empty_trace():
    m = two_level_chooser()
    with pytest.raises(L2SError, match="empty training trace"):
        check_regret_bound(m, reference_policy(m), [], 0.5)


# -- failure demonstrations --

def test_rollin_failure_report():
    r = reference_rollin_failure(two_level_chooser())
    assert r.unvisited_signatures == {("e", "f")}
    assert r.J_ref == 0.0
    assert r.worst_zero_regret_J == 100.0


def test_rollout_failure_report():
    r = reference_rollout_failure(shared_feature_chooser(0.1))
    assert r.J_learned == pytest.approx(0.9)
    assert r.best_deviation_J == pytest.approx(0.0)
    assert r.deviation_gap == pytest.approx(0.9)
    assert r.mixture_J == pytest.approx(0.0)


def test_one_step_deviations_count():
    m = two_level_chooser()
    pol = TablePolicy({("a", "b"): "a", ("c", "d"): "c", ("e", "f"): "f"})
    devs = one_step_deviations(m, pol)
    assert len(devs) == 3  # one alternative label per signature


def test_bad_eps_rejected():
    with pytest.raises(L2SError):
        shared_feature_chooser(0.0)
    with pytest.raises(L2SError):
        shared_feature_chooser(1.0)


# -- learned policies over exact models --

def test_learned_slot_policy_matches_weights():
    m = two_level_chooser()
    task = ExactModelTask(m)
    w = np.zeros(task.dimension)
    w[task.feature_index[(("a", "b"), "a")]] = 5.0  # push away from a
    pol = task.learned_slot_policy(w)
    assert pol.slot(m, "s1") == 1
    assert pol.slot(m, "s2") == 0  # zero-weight tie -> lowest slot


def test_learned_slot_policy_agrees_with_act():
    g = np.random.default_rng(11)
    ties = 0
    for model in random_models(4, 20):
        task = ExactModelTask(model)
        # integer weights, so distinct labels tie as well as equal ones
        w = np.round(g.normal(size=task.dimension))
        pol = task.learned_slot_policy(w)
        for s in model.nonterminal_states():
            state = StateRef(model.depths[s], s)
            sig = model.signature(s)
            scores = [w[task.feature_index[(sig, label)]] for label in sig]
            ties += scores.count(min(scores)) > 1
            assert pol.slot(model, s) == act(LinearPolicy(w),
                                             task.action_features(state))
    assert ties > 0


def shuffled(generator, items):
    return [items[i] for i in generator.permutation(len(items))]


# policies per model whose end-loss tables are checked, spread evenly
# over the class
TABLE_POLICIES = 24


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_end_loss_tables_equal_exact_values(seed):
    # every q_row slot is exact_Q and every entry, filled by a walk
    # through it or read directly, the end loss of its state's
    # trajectory, whatever the reading order, for the reference and for
    # class policies
    order = np.random.default_rng(seed)
    for model in random_models(seed, 20):
        pols = enumerate_policies(model)
        picks = np.linspace(0, len(pols) - 1, min(len(pols), TABLE_POLICIES))
        states, every = model.nonterminal_states(), list(model.depths)
        for pol in [reference_policy(model)] + [pols[int(i)] for i in picks]:
            table = EndLosses(model, pol)
            for s in shuffled(order, states):
                assert table.q_row(s) == [
                    exact_Q(model, pol, s, slot)
                    for slot in range(len(model.edges[s]))]
            assert table[model.start] == exact_J(model, pol)
            for s in shuffled(order, every):
                assert table[s] == model.losses[trajectory(model, pol, s)[-1]]


def test_policy_class_is_the_product_order():
    models = [two_level_chooser(), indistinct_branch_chooser(),
              shared_feature_chooser(0.1)]
    for seed in range(3):
        models.extend(random_models(seed, 40))
    for model in models:
        sigs = model.signatures()
        combos = list(itertools.product(*(sorted(set(sig)) for sig in sigs)))
        pols = enumerate_policies(model)
        assert len(pols) == len(combos)
        for i, combo in enumerate(combos):
            assert pols[i].choices == dict(zip(sigs, combo))
        assert pols[-1].choices == dict(zip(sigs, combos[-1]))
        assert [p.choices for p in pols] == [dict(zip(sigs, c)) for c in combos]
        for i in (len(combos), -len(combos) - 1):
            with pytest.raises(IndexError):
                pols[i]


def test_class_policies_are_linear_policies():
    # every enumerated class policy is the argmin of some weight vector,
    # and runs as a trajectory with the loss exact_J gives it
    models = [two_level_chooser(), indistinct_branch_chooser(),
              shared_feature_chooser(0.1)]
    for seed in range(3):
        models.extend(random_models(seed, 20))
    for model in models:
        task = ExactModelTask(model)
        for pol in enumerate_policies(model):
            w = np.zeros(task.dimension)
            for chosen in pol.choices.items():
                w[task.feature_index[chosen]] = -1.0
            assert task.learned_slot_policy(w).choices == pol.choices
            end = execute(task, pol, task.start_state(), task.horizon)
            assert exact_J(model, pol) == end_loss(task, end)


# -- hypercube lower bound --

def test_snake_lengths_by_dimension():
    # longest induced path length (edges) in the d-cube for d = 1..5
    expected = {1: 1, 2: 2, 3: 4, 4: 7, 5: 13}
    for dim, length in expected.items():
        path = longest_snake(dim)
        assert len(path) - 1 == length
        assert is_induced_path(path, dim)


def test_snake_matches_bruteforce_oracle():
    for dim in (1, 2, 3, 4):
        a = len(longest_snake(dim)) - 1
        b = len(longest_snake_bruteforce(dim)) - 1
        assert a == b


def test_snake_descent_walks_whole_path():
    for dim in (2, 3, 4):
        snake = longest_snake(dim)
        costs = snake_costs(snake, dim)
        walk = best_neighbor_descent(costs, snake[0], dim)
        assert walk == snake
        # strictly decreasing along the walk
        for u, v in zip(walk, walk[1:]):
            assert costs[v] < costs[u]


def test_snake_known_small_path():
    bits, updates = snake_lower_bound(3)
    assert updates == 4
    assert bits == ["000", "001", "011", "111", "110"]


def test_snake_dimension_six_is_the_known_longest():
    # 26 edges: the longest snake in the 6-cube (OEIS A000937)
    path = longest_snake(6)
    assert len(path) - 1 == 26
    assert is_induced_path(path, 6)
    with pytest.raises(L2SError, match="dimension 7 > 6"):
        longest_snake(7)


def test_snake_dimension_limits():
    with pytest.raises(L2SError, match="dimension 8 > 6"):
        longest_snake(8)
    with pytest.raises(L2SError,
                       match="brute-force oracle limited to dimension 5"):
        longest_snake_bruteforce(6)
