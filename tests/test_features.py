"""Each task's feature map against the key strings it hashes.

The oracle below spells every key out in full and hashes it through
`sparse.hash_index`; the tasks read the same indices from per-token
caches, CRC continuation and a cache of whole feature sets keyed by
each state's context, so any difference in a key's spelling, a role, a
boundary marker, the continuation or a context key shows as unequal
features.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from l2s import experiment, rng, sparse
from l2s.experiment import Dataset
from l2s.sparse import ActionFeatures, SparseFeatures, from_pairs, hash_index
from l2s.tasks import (LabelTreeTask, ParseTask, SequenceTask, gen_sequences,
                       gen_trees, parse, sequence)
from l2s.trainer import RolloutPlan


def sequence_keys(task, state):
    t = state.depth
    tok = task.tokens[t]
    return [
        "bias",
        "w=" + tok,
        "p2=" + tok[:2],
        "s2=" + tok[-2:],
        "wm1=" + (task.tokens[t - 1] if t > 0 else "<s>"),
        "wp1=" + (task.tokens[t + 1] if t + 1 < task.horizon else "</s>"),
        "tm1=" + (str(state.payload[-1]) if state.payload else "<s>"),
    ]


def parse_keys(task, state):
    stack, buf, _ = state.payload

    def token(i):
        return task.tokens[i - 1] if 1 <= i <= task.n else "<none>"

    s0 = stack[-1] if stack else 0
    s1 = stack[-2] if len(stack) >= 2 else 0
    b0 = buf if buf <= task.n else 0
    b1 = buf + 1 if buf + 1 <= task.n else 0
    dist = min(abs(b0 - s0), 4) if s0 and b0 else 5
    t_s0, t_s1, t_b0, t_b1 = token(s0), token(s1), token(b0), token(b1)
    return [
        "bias",
        "s0=" + t_s0,
        "s1=" + t_s1,
        "b0=" + t_b0,
        "b1=" + t_b1,
        f"s0b0={t_s0}|{t_b0}",
        "s0p=" + t_s0[:2],
        "s1p=" + t_s1[:2],
        "b0p=" + t_b0[:2],
        "b1p=" + t_b1[:2],
        f"s0pb0p={t_s0[:2]}|{t_b0[:2]}",
        f"dist={dist}",
    ]


def oracle(task, state):
    """The state's ActionFeatures built from its spelled-out keys."""
    if isinstance(task, LabelTreeTask):
        lo, hi = state.payload
        node = f"n{lo}_{hi}"
        pairs = [(hash_index(node + ":bias", task.base), 1.0)]
        pairs += [(hash_index(f"{node}:f{i}", task.base), v)
                  for i, v in task.example_features]
        return ActionFeatures(from_pairs(pairs, task.base),
                              tuple(range(2 if lo < hi else 1)), task.dimension)
    if isinstance(task, SequenceTask):
        keys, blocks = sequence_keys(task, state), tuple(range(task.tag_count))
    else:
        keys, blocks = parse_keys(task, state), tuple(task.legal_actions(state))
    idx = sorted({hash_index(k, task.base) for k in keys})
    return ActionFeatures(SparseFeatures(tuple((i, 1.0) for i in idx), task.base),
                          blocks, task.dimension)


def reachable_states(task):
    """Every state below the horizon, each action from each state tried."""
    frontier, out = [task.start_state()], []
    while frontier:
        state = frontier.pop()
        if state.depth == task.horizon:
            continue
        out.append(state)
        frontier += [task.transition(state, a)
                     for a in range(len(task.action_features(state)))]
    return out


def assert_matches_oracle(task, states=None):
    for state in reachable_states(task) if states is None else states:
        assert task.action_features(state) == oracle(task, state)


# short tokens, non-ASCII ones, and the spellings of the boundary markers
tokens = st.one_of(st.text(max_size=4),
                   st.sampled_from(["<none>", "<s>", "</s>", "a", "é", "日本語", "𝔵y"]))
sentences = st.lists(tokens, min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(sentences, st.integers(1, 3))
def test_sequence_features_match_spelled_keys(words, tag_count):
    assert_matches_oracle(SequenceTask(words, [0] * len(words), tag_count))


@settings(max_examples=60, deadline=None)
@given(sentences)
def test_parse_features_match_spelled_keys(words):
    heads = [0] + [1] * (len(words) - 1)
    assert_matches_oracle(ParseTask(words, heads))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6),
                          st.floats(-1e3, 1e3, allow_nan=False)), max_size=5),
       st.integers(2, 9))
def test_label_tree_features_match_spelled_keys(features, label_count):
    assert_matches_oracle(LabelTreeTask(features, [0.0] * label_count, label_count))


@settings(max_examples=200, deadline=None)
@given(st.text(), st.text(), st.integers(1, 2**32))
def test_crc_continuation_equals_the_whole_key(prefix, suffix, base):
    crc = sparse.prefix_crc(prefix)
    assert sparse.hash_suffix(crc, suffix, base) == hash_index(prefix + suffix, base)


def first_action_path(task):
    """The states below the horizon along the trajectory that always
    takes slot 0."""
    states = [task.start_state()]
    while states[-1].depth + 1 < task.horizon:
        states.append(task.transition(states[-1], 0))
    return states


def test_token_caches_stay_bounded_and_correct():
    # n unique tokens overflow the token caches, and their contexts the
    # feature caches
    n = sparse.TOKEN_CACHE_SIZE + 500
    words = [f"t{i}é" for i in range(n)]
    tagged = [SequenceTask(words[i:i + 4], [0] * 4, 2) for i in range(0, n, 4)]
    parsed = [ParseTask(words[i:i + 4], [0, 1, 1, 1]) for i in range(0, n, 4)]
    # the first tasks again once their tokens and contexts have been evicted
    for task in tagged + tagged[:3] + parsed + parsed[:3]:
        assert_matches_oracle(task, first_action_path(task))
    for cached, size in ((sequence._token_keys, sparse.TOKEN_CACHE_SIZE),
                         (parse._token_keys, sparse.TOKEN_CACHE_SIZE),
                         (sequence._features, sparse.FEATURE_CACHE_SIZE),
                         (parse._features, sparse.FEATURE_CACHE_SIZE)):
        info = cached.cache_info()
        assert info.currsize == info.maxsize == size


def test_sequence_tag_count_keys_the_feature_cache():
    # the same tokens and tags under two tag counts share no feature set
    words = ["a", "b", "c"]
    two, three = SequenceTask(words, [0] * 3, 2), SequenceTask(words, [0] * 3, 3)
    state = two.transition(two.start_state(), 1)
    f2, f3 = two.action_features(state), three.action_features(state)
    assert f2.shared == f3.shared
    assert (f2.dimension, f2.blocks) == (2 * sequence.BASE, (0, 1))
    assert (f3.dimension, f3.blocks) == (3 * sequence.BASE, (0, 1, 2))
    assert_matches_oracle(two)
    assert_matches_oracle(three)


def grid_weights(dataset):
    """The weight bytes of the six grid cells, each trained for one pass
    with a bad reference as `experiment.run_grid` trains it at seed 3."""
    weights = []
    for idx, (roll_in, roll_out) in enumerate(experiment.GRID_CELLS):
        plan = RolloutPlan(roll_in=roll_in, roll_out=roll_out, beta=0.5,
                           seed=rng.derive_seed(3, rng.GRID, idx))
        trainer = experiment.train(dataset, plan, 1, quality="bad", seed=3)
        weights.append(trainer.learner.weights.tobytes())
    return weights


@pytest.mark.parametrize("kind", ["sequence", "parse"])
def test_feature_cache_carries_nothing_between_runs(kind):
    # one grid trained straight after the task's feature cache is
    # cleared, then again with it warm: the same model bytes
    if kind == "sequence":
        module, size = sequence, 5
        records = gen_sequences(12, 4)
    else:
        module, size = parse, None
        records = gen_trees(12, 4)
    dataset = Dataset(kind, [tuple(r) for r in records], size)
    module._features.cache_clear()
    cold = grid_weights(dataset)
    assert module._features.cache_info().currsize > 0
    assert grid_weights(dataset) == cold


def test_sequence_tag_beyond_the_file_bound_builds_features():
    # load_dataset stops a tag of 256 or more; the API does not
    task = SequenceTask(["a", "b", "c", "d"], [300, 255, 256, 0], tag_count=301)
    states = [task.start_state()]
    for tag in (300, 255, 256):
        states.append(task.transition(states[-1], tag))
    assert_matches_oracle(task, states)
