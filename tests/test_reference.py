"""The tasks' seeded references: when they build their random stream,
and which choices they draw from it."""

import pytest

from l2s import rng
from l2s.errors import L2SError
from l2s.tasks import (
    LabelTreeTask,
    ParseTask,
    SequenceTask,
    gen_multiclass,
    gen_sequences,
    gen_trees,
    split,
)

QUALITIES = ("optimal", "suboptimal", "bad")


def sequence_tasks(seed):
    return [SequenceTask(toks, tags, 5)
            for toks, tags in gen_sequences(4, seed)]


def parse_tasks(seed):
    return [ParseTask(toks, heads)
            for toks, heads in gen_trees(4, seed)]


def tree_tasks(seed):
    return [LabelTreeTask(feats, costs, len(costs))
            for feats, costs in gen_multiclass(4, seed)]


TASKS = {"sequence": sequence_tasks, "parse": parse_tasks,
         "multiclass": tree_tasks}


@pytest.fixture()
def built(monkeypatch):
    """A list that grows by one seed for every reference substream built."""
    calls = []
    real = rng.substream

    def counting(seed, purpose):
        if purpose == rng.REFERENCE:
            calls.append(seed)
        return real(seed, purpose)

    monkeypatch.setattr(rng, "substream", counting)
    return calls


def walk(task, policy):
    """Drive `policy` from the start state to an end state."""
    s = task.start_state()
    for _ in range(task.horizon):
        s = task.transition(s, policy.choose(task, s))


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_building_a_reference_builds_no_stream(built, kind):
    for task in TASKS[kind](1):
        for quality in QUALITIES:
            task.reference_policy(quality, seed=3)
    assert built == []


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_unknown_quality_is_rejected_when_the_reference_is_built(kind):
    task = TASKS[kind](1)[0]
    with pytest.raises(L2SError,
                       match="reference quality 'nope' is not one of"):
        task.reference_policy("nope")


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_optimal_reference_never_builds_a_stream(built, kind):
    for task in TASKS[kind](2):
        walk(task, task.reference_policy("optimal", seed=3))
    assert built == []


@pytest.mark.parametrize("kind", sorted(TASKS))
def test_bad_reference_builds_one_stream_at_its_first_draw(built, kind):
    task = TASKS[kind](3)[0]
    ref = task.reference_policy("bad", seed=7)
    ref.choose(task, task.start_state())
    assert built == [7]
    walk(task, ref)
    walk(task, ref)
    assert built == [7]


# -- the choice rules, replayed from the stream drawn directly --

def replay_sequence(task, state, quality, g):
    gold = task.gold_tags[state.depth]
    if quality == "suboptimal" and g.random() < 0.5:
        return gold
    return int(g.integers(task.tag_count))


def replay_parse(task, state, quality, g):
    legal = task.legal_actions(state)
    if quality == "suboptimal":
        zero = [i for i, a in enumerate(legal)
                if task.action_cost(state.payload, a) == 0]
        if len(zero) == 1:
            return zero[0]
    return int(g.integers(len(legal)))


def replay_tree(task, state, quality, g):
    lo, hi = state.payload
    if lo == hi:
        return 0
    if quality == "bad" or g.random() >= 0.5:
        return int(g.integers(2))
    left, right = split(lo, hi)
    return int(min(task.costs[left[0]:left[1] + 1])
               > min(task.costs[right[0]:right[1] + 1]))


REPLAY = {"sequence": replay_sequence, "parse": replay_parse,
          "multiclass": replay_tree}


@pytest.mark.parametrize("quality", ["suboptimal", "bad"])
@pytest.mark.parametrize("kind", sorted(TASKS))
def test_choices_replay_the_reference_substream(kind, quality):
    for data_seed in range(3):
        for task in TASKS[kind](data_seed):
            seed = 10 + data_seed
            ref = task.reference_policy(quality, seed=seed)
            g = rng.substream(seed, rng.REFERENCE)
            # two trajectories: the second continues the same stream
            for _ in range(2):
                s = task.start_state()
                for _ in range(task.horizon):
                    want = REPLAY[kind](task, s, quality, g)
                    assert ref.choose(task, s) == want
                    s = task.transition(s, want)
