"""Roll-in / one-step-deviation / roll-out training loop."""

import numpy as np
import pytest

from l2s import rng, theory
from l2s.errors import BadConfig, NoPolicies, NonFiniteCost
from l2s.theory.exact import ExactModelTask
from l2s.trainer import (
    RolloutPlan,
    Trainer,
    draw_rollout_policy,
    extract_costs,
)


def test_plan_validation():
    with pytest.raises(BadConfig):
        RolloutPlan(roll_in="mixture")  # not a roll-in choice
    with pytest.raises(BadConfig):
        RolloutPlan(roll_out="nope")
    with pytest.raises(BadConfig):
        RolloutPlan(beta=1.5)
    with pytest.raises(BadConfig):
        RolloutPlan(draw_granularity="sometimes")


def test_extract_costs():
    assert list(extract_costs([3.0, 1.0, 2.0])) == [2.0, 0.0, 1.0]
    assert list(extract_costs([0.9])) == [0.0]
    with pytest.raises(NonFiniteCost):
        extract_costs([1.0, np.inf])
    with pytest.raises(NonFiniteCost):
        extract_costs([])


def test_mixture_draw_frequencies():
    plan = RolloutPlan(roll_out="mixture", beta=0.5)
    g = np.random.default_rng(0)
    draws = [draw_rollout_policy(plan, g) for _ in range(100_000)]
    frac = draws.count("reference") / len(draws)
    assert abs(frac - 0.5) < 0.01  # 3 sigma ~ 0.0047


def test_mixture_degenerate_betas():
    plan0 = RolloutPlan(roll_out="mixture", beta=0.0)
    plan1 = RolloutPlan(roll_out="mixture", beta=1.0)
    g = np.random.default_rng(0)
    assert all(draw_rollout_policy(plan0, g) == "learned" for _ in range(100))
    assert all(draw_rollout_policy(plan1, g) == "reference" for _ in range(100))


def run_rounds(model, plan, rounds):
    task = ExactModelTask(model)
    trainer = Trainer(task.dimension, plan, record_examples=True)
    stream = []
    for _ in range(rounds):
        examples, diag = trainer.process_example(task)
        stream.extend(examples)
    return trainer, task, stream, diag


def test_examples_per_instance_and_cost_validity():
    model = theory.two_level_chooser()
    plan = RolloutPlan(roll_in="learned", roll_out="learned", seed=0)
    trainer, task, stream, diag = run_rounds(model, plan, 3)
    assert len(stream) == 3 * model.horizon
    for e in stream:
        assert min(e.costs) == 0.0
        assert len(e.costs) == len(e.per_action_features)
    assert diag["instance"] == 3
    assert len(diag["cost_vectors"]) == model.horizon


def test_known_cost_vector_under_reference_rollout():
    # shared-signature space, eps = 0.1: from the start, deviating to each
    # arm then following the reference yields losses (1.0, 1.1), so the
    # extracted costs over (a, b) are (0, 0.1).
    model = theory.shared_feature_chooser(0.1)
    plan = RolloutPlan(roll_in="learned", roll_out="reference", seed=0)
    trainer, task, stream, _ = run_rounds(model, plan, 1)
    first = stream[0]  # depth-0 example, visited at s1
    assert list(first.costs) == pytest.approx([0.0, 0.1])


def test_reference_rollin_never_reaches_unvisited_branch():
    # with reference roll-in and roll-out, examples appear only on and one
    # step off the reference path; the off-path mid state is never visited
    model = theory.two_level_chooser()
    plan = RolloutPlan(roll_in="reference", roll_out="reference", seed=0)
    trainer, task, stream, _ = run_rounds(model, plan, 20)
    visited = {task.feature_owner(e.per_action_features.blocks[0])[0]
               for e in stream}
    assert ("e", "f") not in visited
    assert visited == {("a", "b"), ("c", "d")}


def test_mixture_beta_one_equals_reference_rollout():
    model = theory.shared_feature_chooser(0.1)
    seeds = dict(seed=7)
    plan_mix = RolloutPlan(roll_in="learned", roll_out="mixture", beta=1.0,
                           **seeds)
    plan_ref = RolloutPlan(roll_in="learned", roll_out="reference", **seeds)
    _, _, s1, _ = run_rounds(model, plan_mix, 10)
    _, _, s2, _ = run_rounds(model, plan_ref, 10)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.costs, b.costs)


def test_mixture_beta_zero_equals_learned_rollout():
    model = theory.shared_feature_chooser(0.1)
    plan_mix = RolloutPlan(roll_in="learned", roll_out="mixture", beta=0.0,
                           seed=7)
    plan_lrn = RolloutPlan(roll_in="learned", roll_out="learned", seed=7)
    _, _, s1, _ = run_rounds(model, plan_mix, 10)
    _, _, s2, _ = run_rounds(model, plan_lrn, 10)
    for a, b in zip(s1, s2):
        assert np.array_equal(a.costs, b.costs)


def test_seeded_reproducibility():
    model = theory.shared_feature_chooser(0.1)
    plan = RolloutPlan(roll_in="learned", roll_out="mixture", beta=0.5, seed=3)
    t1, _, _, _ = run_rounds(model, plan, 25)
    t2, _, _, _ = run_rounds(model, plan, 25)
    assert np.array_equal(t1.learner.weights, t2.learner.weights)
    assert t1.learner.weights.tobytes() == t2.learner.weights.tobytes()


def test_history_and_averaging_pool():
    model = theory.two_level_chooser()
    plan = RolloutPlan(roll_in="learned", roll_out="learned", seed=0)
    task = ExactModelTask(model)
    trainer = Trainer(task.dimension, plan)
    g = rng.substream(0, rng.AVERAGING)
    with pytest.raises(NoPolicies):
        trainer.averaged_policy(g)  # only the untrained initial policy
    trainer.process_example(task)
    avg = trainer.averaged_policy(g)
    assert len(avg.snapshots) == 1
    avg_all = trainer.averaged_policy(g, include_initial=True)
    assert len(avg_all.snapshots) == 2


def test_averaged_policy_monte_carlo_mean():
    # pool = {reference-like policy with J = 0, worst policy with J = 100};
    # J of the uniform average is 50, estimated within 3 sigma over 1e4
    # draws (sd of a 0/100 Bernoulli mean: 50 / 100 = 0.5 per draw -> 1.5)
    model = theory.two_level_chooser()
    task = ExactModelTask(model)
    # weight vectors that realize label choices (a, c, f) and (b, c, e)
    good = np.zeros(task.dimension)
    good[task.feature_index[(("a", "b"), "b")]] = 1.0   # prefer a
    good[task.feature_index[(("c", "d"), "d")]] = 1.0   # prefer c
    good[task.feature_index[(("e", "f"), "e")]] = 1.0   # prefer f
    bad = np.zeros(task.dimension)
    bad[task.feature_index[(("a", "b"), "a")]] = 1.0    # prefer b
    bad[task.feature_index[(("e", "f"), "f")]] = 1.0    # prefer e
    assert theory.exact_J(model, task.learned_slot_policy(good)) == 0.0
    assert theory.exact_J(model, task.learned_slot_policy(bad)) == 100.0

    from l2s.trainer import AveragedPolicy
    from l2s import core
    avg = AveragedPolicy([good, bad], rng.substream(0, rng.AVERAGING))
    total = 0.0
    for _ in range(10_000):
        pol = avg.sample()
        end = core.execute(task, pol, task.start_state(), task.horizon)
        total += task.terminal_loss(end)
    assert abs(total / 10_000 - 50.0) <= 1.5


def test_per_state_mixture_draws_along_rollout():
    # per-state draws consume one Bernoulli per visited state, so with the
    # same seed the per-rollout and per-state runs diverge on this space
    model = theory.two_level_chooser()
    plan_a = RolloutPlan(roll_in="learned", roll_out="mixture", beta=0.5,
                         draw_granularity="per_rollout", seed=11)
    plan_b = RolloutPlan(roll_in="learned", roll_out="mixture", beta=0.5,
                         draw_granularity="per_state", seed=11)
    ta, _, _, _ = run_rounds(model, plan_a, 15)
    tb, _, _, _ = run_rounds(model, plan_b, 15)
    assert not np.array_equal(ta.learner.weights, tb.learner.weights)
