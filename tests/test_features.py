"""Each task's feature map against the key strings it hashes.

The oracle below spells every key out in full and hashes it through
`sparse.hash_index`; the tasks read the same indices from per-token
caches, CRC continuation and a cache of whole feature sets keyed by
each state's context, so any difference in a key's spelling, a role, a
boundary marker, the continuation or a context key shows as unequal
features.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2s import bandit, experiment, rng, sparse
from l2s.errors import L2SError
from l2s.experiment import Dataset
from l2s.sparse import ActionFeatures, SparseFeatures, from_pairs, hash_index
from l2s.tasks import (LabelTreeTask, ParseTask, SequenceTask, gen_multiclass,
                       gen_sequences, gen_trees, labeltree, parse, sequence)
from l2s.trainer import RolloutPlan


def sequence_keys(task, state, path):
    t = state.depth
    tok = task.tokens[t]
    return [
        "bias",
        "w=" + tok,
        "p2=" + tok[:2],
        "s2=" + tok[-2:],
        "wm1=" + (task.tokens[t - 1] if t > 0 else "<s>"),
        "wp1=" + (task.tokens[t + 1] if t + 1 < task.horizon else "</s>"),
        "tm1=" + (str(path[-1]) if path else "<s>"),
    ]


def arc_hybrid_configuration(task, path):
    """The stack and buffer front that the slots `path` reach by the
    arc-hybrid rules: with a buffer a slot is its transition id (shift,
    reduce left, reduce right), and without one the only slot reduces
    right."""
    stack, buf = (), 1
    for slot in path:
        if buf <= task.n and slot == 0:
            stack, buf = stack + (buf,), buf + 1
        else:
            stack = stack[:-1]
    return stack, buf


def parse_keys(task, path):
    stack, buf = arc_hybrid_configuration(task, path)

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


def oracle(task, state, path=()):
    """The ActionFeatures of `state`, which the actions `path` reach,
    built from its spelled-out keys. A label-tree node is read from the
    state; a sequence's last tag and a parser's stack and buffer from
    `path`."""
    if isinstance(task, LabelTreeTask):
        lo, hi = state.payload
        node = f"n{lo}_{hi}"
        pairs = [(hash_index(node + ":bias", task.base), 1.0)]
        pairs += [(hash_index(f"{node}:f{i}", task.base), v)
                  for i, v in task.example_features]
        return ActionFeatures(from_pairs(pairs, task.base),
                              tuple(range(2 if lo < hi else 1)), task.dimension)
    if isinstance(task, SequenceTask):
        keys, blocks = sequence_keys(task, state, path), tuple(range(task.tag_count))
    else:
        keys, blocks = parse_keys(task, path), tuple(task.legal_actions(state))
    idx = sorted({hash_index(k, task.base) for k in keys})
    return ActionFeatures(SparseFeatures(tuple((i, 1.0) for i in idx), task.base),
                          blocks, task.dimension)


def reachable_states(task):
    """Every state below the horizon with the actions that reach it, each
    action from each state tried."""
    frontier, out = [(task.start_state(), ())], []
    while frontier:
        state, path = frontier.pop()
        if state.depth == task.horizon:
            continue
        out.append((state, path))
        frontier += [(task.transition(state, a), path + (a,))
                     for a in range(len(task.action_features(state)))]
    return out


def along(task, path):
    """The (state, actions so far) pair of every prefix of `path`, which
    stays below the horizon."""
    out = [(task.start_state(), ())]
    for depth, action in enumerate(path, 1):
        out.append((task.transition(out[-1][0], action), path[:depth]))
    return out


def assert_matches_oracle(task, reached=None):
    for state, path in reachable_states(task) if reached is None else reached:
        assert task.action_features(state) == oracle(task, state, path)


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
    """The states below the horizon, with their actions, along the
    trajectory that always takes slot 0."""
    return along(task, (0,) * (task.horizon - 1))


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


def assert_label_tree_cache_counts_its_pairs():
    cache = labeltree._features
    assert cache.pairs == sum(len(row) + 1 for _, _, row in cache)
    assert cache.pairs <= labeltree.PAIR_BOUND


def test_label_tree_cache_stays_bounded_and_correct():
    # rows of 2000 features, then narrow ones, overflow the pair bound;
    # the first rows again once they have been evicted
    labeltree._features.clear()
    width = 2000
    wide = [[(j, float(r)) for j in range(width)]
            for r in range(labeltree.PAIR_BOUND // (width + 1) + 3)]
    narrow = [[(r, 1.0), (r + 1, -0.5)] for r in range(2000)]
    tasks = ([LabelTreeTask(row, [0.0, 0.0], 2) for row in wide]
             + [LabelTreeTask(row, [0.0] * 3, 3) for row in narrow])
    peak = 0
    for task in tasks + tasks[:3]:
        assert_matches_oracle(task)
        assert_label_tree_cache_counts_its_pairs()
        peak = max(peak, labeltree._features.pairs)
    assert peak > labeltree.PAIR_BOUND - width - 1
    # the wide rows were evicted: the first three were built again
    assert [row for _, _, row in labeltree._features][-1] \
        == tasks[2].example_features


def test_label_tree_row_wider_than_the_bound_is_not_kept(monkeypatch):
    monkeypatch.setattr(labeltree, "PAIR_BOUND", 10)
    labeltree._features.clear()
    # one node each: 5 pairs kept, 21 built and dropped, evicting nothing
    fits = LabelTreeTask([(j, 1.0) for j in range(4)], [0.0, 0.0], 2)
    too_wide = LabelTreeTask([(j, 1.0) for j in range(20)], [0.0, 0.0], 2)
    for task in (fits, too_wide, fits, too_wide):
        assert_matches_oracle(task)
        assert_label_tree_cache_counts_its_pairs()
    assert {row for _, _, row in labeltree._features} == {fits.example_features}


def test_label_tree_cache_shares_a_row_across_label_counts():
    # node (0, 1) is the root under 2 labels and a child under 3 and 8:
    # one entry, equal to what each task spells out; the three trees
    # hold 1 + 3 + 7 nodes, 9 of them distinct
    labeltree._features.clear()
    row = [(5, 0.25), (9, -1.5), (5, 2.0)]
    for k in (2, 3, 8, 3, 2):
        assert_matches_oracle(LabelTreeTask(row, [0.0] * k, k))
    nodes = [(lo, hi) for lo, hi, _ in labeltree._features]
    assert len(nodes) == len(set(nodes)) == 9
    assert_label_tree_cache_counts_its_pairs()


@pytest.mark.parametrize("index", [1.0, True, np.float64(1.0), "1", None])
def test_label_tree_index_that_is_not_an_int_is_refused(index):
    # 1.0 and True equal 1 and hash alike, but spelled n0_1:f1.0 and
    # n0_1:fTrue; one cache entry would serve both spellings
    labeltree._features.clear()
    task = LabelTreeTask([(1, 0.5)], [0.0, 0.0], 2)
    assert_matches_oracle(task)
    with pytest.raises(L2SError, match="feature index .* is not an int"):
        LabelTreeTask([(index, 0.5)], [0.0, 0.0], 2)


def test_label_tree_numpy_int_index_shares_the_int_entry():
    labeltree._features.clear()
    plain = LabelTreeTask([(3, 0.5)], [0.0, 0.0], 2)
    numpy = LabelTreeTask([(np.int64(3), np.float64(0.5))], [0.0, 0.0], 2)
    assert numpy.example_features == plain.example_features
    assert_matches_oracle(plain)
    assert_matches_oracle(numpy)
    assert len(labeltree._features) == 1


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_label_tree_signed_zero_values_give_one_feature_set(first):
    # 0.0 == -0.0 and the two hash alike, so they share an entry: the
    # sum from_pairs starts at 0.0 makes both +0.0 either way
    labeltree._features.clear()
    tasks = [LabelTreeTask([(7, v), (8, 1.0)], [0.0, 0.0], 2)
             for v in (first, -first)]
    for task in tasks:
        state = task.start_state()
        got, want = task.action_features(state), oracle(task, state)
        assert repr(got) == repr(want)
        assert all(math.copysign(1.0, v) == 1.0 for _, v in got.shared.pairs)
    assert len(labeltree._features) == 1


def test_colliding_parse_keys_make_one_pair_of_value_one():
    # sequence and parse build a state's pairs from the set of its keys'
    # indices, so two keys hashed to one index give one pair of value
    # 1.0, where the label tree's from_pairs sums them to 2.0. Summing
    # here too would move parse model bytes.
    index = hash_index("s0b0=tl26|tg25", parse.BASE)
    assert hash_index("s0pb0p=tl|tg", parse.BASE) == index
    pairs = parse._features("tl26", "<none>", "tg25", "<none>", 5,
                            (0, 1)).shared.pairs
    assert len(pairs) == 11  # 12 keys
    assert [v for i, v in pairs if i == index] == [1.0]
    assert from_pairs([(index, 1.0)] * 2, parse.BASE).pairs == ((index, 2.0),)


def bandit_session(dataset, rounds=300):
    """The outcomes and final weights of one bandit session, run as
    `l2s bandit` runs it at seed 5."""
    state = bandit.BanditState(experiment.task_dimension(dataset),
                               epsilon=0.3, beta=0.5, seed=5)
    log = [(i, outcome)
           for _, i, outcome in bandit.session(state, dataset, rounds)]
    return log, state.learner.weights.tobytes()


def test_bandit_session_is_the_same_cold_and_warm():
    dataset = Dataset("multiclass", gen_multiclass(40, 6), 8)
    labeltree._features.clear()
    cold = bandit_session(dataset)
    assert len(labeltree._features) > 0
    assert bandit_session(dataset) == cold


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


@pytest.mark.parametrize("kind", ["sequence", "parse", "multiclass"])
def test_feature_cache_carries_nothing_between_runs(kind):
    # one grid trained straight after the task's feature cache is
    # cleared, then again with it warm: the same model bytes
    if kind == "sequence":
        cache, size = sequence._features, 5
        records = gen_sequences(12, 4)
    elif kind == "parse":
        cache, size = parse._features, None
        records = gen_trees(12, 4)
    else:
        cache, size = labeltree._features, 8
        records = gen_multiclass(12, 4)
    dataset = Dataset(kind, [tuple(r) for r in records], size)
    if kind == "multiclass":
        cache.clear()
        cold = grid_weights(dataset)
        assert len(cache) > 0
    else:
        cache.cache_clear()
        cold = grid_weights(dataset)
        assert cache.cache_info().currsize > 0
    assert grid_weights(dataset) == cold


def test_sequence_tag_beyond_the_file_bound_builds_features():
    # load_dataset stops a tag of 256 or more; the API does not
    task = SequenceTask(["a", "b", "c", "d"], [300, 255, 256, 0], tag_count=301)
    assert_matches_oracle(task, along(task, (300, 255, 256)))
