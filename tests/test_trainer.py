"""Roll-in / one-step-deviation / roll-out training loop."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2s import core, rng, theory
from l2s.errors import L2SError
from l2s.tasks import (LabelTreeTask, ParseTask, SequenceTask, gen_multiclass,
                       gen_sequences, gen_trees, parse, sequence)
from l2s.theory.exact import ExactModelTask
from l2s.trainer import (
    CHECKPOINT_EVERY,
    AveragedPolicy,
    PolicyPool,
    RolloutPlan,
    Trainer,
    complete_deviation,
    extract_costs,
)


def test_plan_validation():
    with pytest.raises(L2SError, match="roll_in must be one of"):
        RolloutPlan(roll_in="mixture")  # not a roll-in choice
    with pytest.raises(L2SError, match="roll_out must be one of"):
        RolloutPlan(roll_out="nope")
    with pytest.raises(L2SError, match=r"beta 1\.5 outside \[0, 1\]"):
        RolloutPlan(beta=1.5)


def test_extract_costs():
    assert list(extract_costs([3.0, 1.0, 2.0])) == [2.0, 0.0, 1.0]
    assert list(extract_costs([0.9])) == [0.0]
    with pytest.raises(L2SError, match=r"^losses \[ 1\. inf\]$"):
        extract_costs([1.0, np.inf])
    with pytest.raises(L2SError, match="empty loss vector"):
        extract_costs([])


# finite losses: any float (signed zeros, subnormals, every magnitude),
# zeros and subnormals often, and integers
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.integers(-2**70, 2**70),
)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=500, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=8))
def test_extract_costs_equals_numpy_shift(losses):
    a = np.asarray(losses, dtype=np.float64)
    with np.errstate(over="ignore"):  # 1e308 - -1e308 is inf on both sides
        want = a - a.min()
    got = extract_costs(losses)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(FINITE, max_size=6), NON_FINITE, st.integers(0, 6))
def test_extract_costs_rejects_non_finite(losses, bad, at):
    losses = losses[:at] + [bad] + losses[at:]
    with pytest.raises(L2SError, match="^losses ") as err:
        extract_costs(losses)
    assert str(err.value) == f"losses {np.asarray(losses, dtype=np.float64)}"


class CountingGenerator:
    """A generator that counts its `random()` draws; any other use fails."""

    def __init__(self, seed):
        self.generator = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.generator.random()


def rollout_policies(roll_out, beta, count, generator):
    """The policy `complete_deviation` picks for each of `count` roll-outs
    from the last decision point of a two-level space, as 'reference' or
    'learned'."""
    task = ExactModelTask(theory.two_level_chooser())
    reference = task.reference_policy()
    learned = core.LinearPolicy(np.zeros(task.dimension))
    start = task.start_state()
    state = task.transition(start, reference.choose(task, start))
    plan = RolloutPlan(roll_out=roll_out, beta=beta)
    picks = []
    for _ in range(count):
        _, policy = complete_deviation(task, state, 0, plan, reference,
                                       learned, generator)
        picks.append("reference" if policy is reference else "learned")
    return picks


def test_mixture_draw_frequencies():
    g = CountingGenerator(0)
    draws = rollout_policies("mixture", 0.5, 100_000, g)
    frac = draws.count("reference") / len(draws)
    assert abs(frac - 0.5) < 0.01  # 3 sigma ~ 0.0047
    assert g.draws == len(draws)  # one random() per roll-out


def test_mixture_degenerate_betas():
    g = CountingGenerator(0)
    assert rollout_policies("mixture", 0.0, 100, g) == ["learned"] * 100
    assert rollout_policies("mixture", 1.0, 100, g) == ["reference"] * 100
    assert g.draws == 200  # drawn even when beta decides alone
    # the pure roll-outs draw nothing
    assert rollout_policies("reference", 0.5, 10, g) == ["reference"] * 10
    assert rollout_policies("learned", 0.5, 10, g) == ["learned"] * 10
    assert g.draws == 200


def run_rounds(model, plan, rounds):
    task = ExactModelTask(model)
    trainer = Trainer(task.dimension, plan)
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
    visited = {task.feature_signature[e.per_action_features.blocks[0]]
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
    with pytest.raises(L2SError, match="no snapshot from 1 in a pool of 1"):
        AveragedPolicy(trainer.history, g, first=1)  # only the initial policy
    trainer.process_example(task)
    assert len(trainer.history) == 2
    avg = AveragedPolicy(trainer.history, g, first=1)
    assert np.array_equal(avg.sample().weights, trainer.learner.weights)


# one update's writes: (index, value) pairs into a pool of dimension
# POOL_DIMENSION, indices repeating, zeros of both signs often
POOL_DIMENSION = 24
WRITES = st.lists(st.tuples(st.integers(0, POOL_DIMENSION - 1),
                            st.one_of(st.sampled_from([0.0, -0.0]), FINITE)),
                  max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(WRITES, max_size=3 * CHECKPOINT_EVERY + 2), st.randoms())
def test_policy_pool_snapshots_equal_dense_copies(updates, random):
    def same(got, want):
        return got.dtype == np.float64 and got.tobytes() == want.tobytes()

    pool = PolicyPool(POOL_DIMENSION)
    weights = np.zeros(POOL_DIMENSION)
    dense = [weights.copy()]
    for writes in updates:
        for i, v in writes:
            weights[i] = v
        pool.append(weights, [i for i, _ in writes])
        dense.append(weights.copy())
        j = random.randrange(len(dense))
        assert same(pool.rebuild(j), dense[j])

    assert len(pool) == len(dense)
    order = list(range(len(dense)))
    random.shuffle(order)
    for j in order:
        assert same(pool.rebuild(j), dense[j])
    assert same(pool.rebuild(-1), dense[-1])
    iterated = list(pool)  # kept: later arrays must leave earlier ones alone
    assert all(same(got, want) for got, want in zip(iterated, dense, strict=True))
    # through an archive, zeros of both signs included; the older form
    # with one dense row per snapshot is refused by name
    saved, legacy = io.BytesIO(), io.BytesIO()
    pool.save(saved)
    saved.seek(0)
    loaded = PolicyPool.load(saved)
    assert all(same(got, want) for got, want in zip(loaded, dense, strict=True))
    assert same(loaded.rebuild(j), dense[j])
    np.savez(legacy, snapshots=np.array(dense))
    legacy.seek(0)
    with pytest.raises(L2SError, match="dense `snapshots` rows"):
        PolicyPool.load(legacy)


def test_policy_pool_save_load_round_trip(tmp_path):
    trainer = Trainer(3 << 15, RolloutPlan(seed=2))
    for _ in range(2):
        for toks, tags in gen_sequences(2 * CHECKPOINT_EVERY, 5, tag_count=3):
            trainer.process_example(SequenceTask(toks, tags, 3))
    path = tmp_path / "history.npz"
    trainer.history.save(path, config="c")
    loaded = PolicyPool.load(path)
    assert loaded.dimension == trainer.history.dimension
    assert len(loaded) == 1 + 2 * 2 * CHECKPOINT_EVERY
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(loaded, trainer.history, strict=True))
    assert all(loaded.rebuild(j).tobytes() == trainer.history.rebuild(j).tobytes()
               for j in range(len(loaded)))
    # only an OSError raised while an opened archive is read is "not a
    # snapshot archive"; a missing file is the OSError open raises
    with pytest.raises(FileNotFoundError):
        PolicyPool.load(tmp_path / "missing.npz")


def test_policy_pool_rejects_foreign_weights_and_indices():
    pool = PolicyPool(4)
    with pytest.raises(L2SError, match="weights 5 != pool dimension 4"):
        pool.append(np.zeros(5), [0])
    with pytest.raises(L2SError, match=r"written indices outside \[0, 4\)"):
        pool.append(np.zeros(4), [4])
    with pytest.raises(L2SError, match=r"written indices outside \[0, 4\)"):
        pool.append(np.zeros(4), [-1])
    with pytest.raises(IndexError):
        pool.rebuild(1)
    assert len(pool) == 1


def test_explored_pool_memory_is_bounded_by_writes(tmp_path):
    # 500 explore rounds on 8-label data: a dense copy per round would
    # hold 500 x 256 KiB, about 125 MB
    from l2s import bandit, experiment
    from l2s.tasks import gen_multiclass, write_multiclass
    path = tmp_path / "mc.csv"
    write_multiclass(path, gen_multiclass(100, 0))
    dataset = experiment.load_dataset("multiclass", str(path))
    tasks = [experiment.make_task(dataset, i, normalize_loss=True)
             for i in range(len(dataset.records))]
    state = bandit.BanditState(experiment.task_dimension(dataset),
                               epsilon=1.0, seed=0)
    tracemalloc.start()
    try:
        for r in range(500):
            task = tasks[r % len(tasks)]
            state, out = bandit.bandit_step(
                state, task, lambda end: core.end_loss(task, end),
                task.reference_policy("bad", seed=r))
            assert out.mode == "explored"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.explored_policies) == 501
    assert state.learner.weights.nbytes == 256 * 1024
    assert peak < 4 * 2**20


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

    from l2s import core
    pool = PolicyPool(task.dimension)
    pool.append(good, np.flatnonzero(good))
    pool.append(bad, np.flatnonzero(good + bad))
    avg = AveragedPolicy(pool, rng.substream(0, rng.AVERAGING), first=1)
    total = 0.0
    for _ in range(10_000):
        pol = avg.sample()
        end = core.execute(task, pol, task.start_state(), task.horizon)
        total += task.terminal_loss(end)
    assert abs(total / 10_000 - 50.0) <= 1.5


# -- the one feature store: the task modules' ActionFeatures caches --

def store_tasks(kind):
    """A few small instances of one task kind."""
    if kind == "sequence":
        return [SequenceTask(toks, tags, 4) for toks, tags in
                gen_sequences(4, 0, tag_count=4, min_len=3, max_len=6)]
    if kind == "parse":
        return [ParseTask(toks, heads) for toks, heads in gen_trees(4, 0)]
    if kind == "labeltree":
        return [LabelTreeTask(pairs, costs, 5)
                for pairs, costs in gen_multiclass(6, 0, label_count=5)]
    return [ExactModelTask(m) for m in
            [theory.shared_feature_chooser()] + theory.random_models(0, 3)]


@pytest.mark.parametrize("roll_in", ["learned", "reference"])
@pytest.mark.parametrize("kind", ["sequence", "parse", "labeltree", "exact"])
def test_examples_hold_the_tasks_own_features(kind, roll_in):
    # each example's features are the very object the task returns for
    # its decision point, found by replaying the roll-in
    plan = RolloutPlan(roll_in=roll_in, roll_out="mixture", seed=0)
    for task in store_tasks(kind):
        trainer = Trainer(task.dimension, plan, record_history=False)
        reference = task.reference_policy()
        for _ in range(3):
            rolled = (reference if roll_in == "reference" else
                      core.LinearPolicy(trainer.learner.weights.copy()))
            examples, _ = trainer.process_example(task, reference)
            assert len(examples) == task.horizon
            s = task.start_state()
            for ex in examples:
                assert ex.per_action_features is task.action_features(s)
                s = task.transition(s, rolled.choose(task, s))


@pytest.mark.parametrize("kind", ["sequence", "parse"])
def test_one_build_per_context_per_process(kind, monkeypatch):
    module = {"sequence": sequence, "parse": parse}[kind]
    build, contexts = module._features, []
    monkeypatch.setattr(module, "_features",
                        lambda *args: contexts.append(args) or build(*args))
    tasks = store_tasks(kind)
    plan = RolloutPlan(roll_in="learned", roll_out="mixture", seed=0)
    trainer = Trainer(tasks[0].dimension, plan, record_history=False)
    for task in tasks:
        build.cache_clear()
        contexts.clear()
        trainer.process_example(task)
        assert build.cache_info().misses == len(set(contexts))


def test_post_update_loss_is_computed_only_for_a_consumer(tmp_path, monkeypatch):
    from l2s import experiment
    from l2s.cslearn import CostSensitiveLearner
    from l2s.tasks import gen_multiclass, write_multiclass
    path = tmp_path / "mc.csv"
    write_multiclass(path, gen_multiclass(6, 0))
    dataset = experiment.load_dataset("multiclass", str(path))
    plan = RolloutPlan(roll_in="learned", roll_out="mixture", seed=0)
    scored = []
    predict = CostSensitiveLearner.predict
    monkeypatch.setattr(CostSensitiveLearner, "predict",
                        lambda self, ex: scored.append(ex) or predict(self, ex))
    experiment.train(dataset, plan, 2)
    assert scored == []
    rows = []
    experiment.train(dataset, plan, 2, on_instance=rows.append)
    horizon = experiment.make_task(dataset, 0).horizon
    assert len(rows) == 12 and len(scored) == 12 * horizon
    assert all(list(row)[-1] == "post_update_loss" for row in rows)
