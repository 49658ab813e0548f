"""Concrete search tasks: tagging, label trees, parsing, data I/O."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l2s import core, rng, theory
from l2s.errors import DataFormatError, L2SError
from l2s.tasks import (
    LabelTreeTask,
    ParseTask,
    SequenceTask,
    gen_multiclass,
    gen_sequences,
    gen_trees,
    read_multiclass,
    read_sentences,
    split,
    write_multiclass,
    write_sentences,
)
from l2s.theory.exact import ExactModelTask


# -- enumeration oracles (independent of the reference implementations) --

def action_count(task, state):
    """The live actions at `state` by the task's own rule, 0 at the
    horizon; not read from the action features under test."""
    if state.depth == task.horizon:
        return 0
    if isinstance(task, SequenceTask):
        return task.tag_count
    if isinstance(task, ParseTask):
        return len(task.legal_actions(state))
    if isinstance(task, LabelTreeTask):
        lo, hi = state.payload
        return 2 if lo < hi else 1  # the node's width
    return len(task.model.edges[state.payload])


def all_end_states(task, state):
    """Every end state reachable from `state`, by brute-force expansion."""
    if state.depth == task.horizon:
        return [state]
    out = []
    for a in range(action_count(task, state)):
        out.extend(all_end_states(task, task.transition(state, a)))
    return out


def min_reachable_loss(task, state):
    return min(task.terminal_loss(e) for e in all_end_states(task, state))


def all_reachable_states(task):
    frontier = [task.start_state()]
    seen = []
    while frontier:
        s = frontier.pop()
        seen.append(s)
        for a in range(action_count(task, s)):
            frontier.append(task.transition(s, a))
    return seen


def assert_reference_is_optimal(task, seed=0):
    """From every reachable state, following the optimal reference attains
    the minimum reachable loss (checked by exhaustive enumeration)."""
    ref = task.reference_policy("optimal", seed=seed)
    for s in all_reachable_states(task):
        if s.depth == task.horizon:
            continue
        end = core.execute(task, ref, s, task.horizon - s.depth)
        assert task.terminal_loss(end) == pytest.approx(
            min_reachable_loss(task, s)), f"suboptimal at {s}"


def reach(task, actions):
    """The state that `actions` reach from the start."""
    state = task.start_state()
    for a in actions:
        state = task.transition(state, a)
    return state


def small_tasks(kind):
    """Small instances of one task kind, enumerable state by state."""
    if kind == "sequence":
        return [SequenceTask(toks, tags, 3) for toks, tags in
                gen_sequences(3, seed=1, tag_count=3, min_len=2, max_len=4)]
    if kind == "parse":
        return [ParseTask(toks, heads)
                for toks, heads in gen_trees(6, seed=1, min_len=1, max_len=5)]
    if kind == "labeltree":
        return [LabelTreeTask([(0, 1.0)], np.zeros(k), k)
                for k in (2, 3, 5, 8)]
    return [ExactModelTask(m) for m in
            [theory.two_level_chooser(), theory.shared_feature_chooser()]
            + theory.random_models(1, 4)]


@pytest.mark.parametrize("kind", ["sequence", "parse", "labeltree", "exact"])
def test_every_state_below_the_horizon_has_an_action(kind):
    # the action features' blocks are the actions, and core.execute
    # checks no step for them: none may be empty below the horizon
    for task in small_tasks(kind):
        below = [s for s in all_reachable_states(task)
                 if s.depth < task.horizon]
        assert below
        for s in below:
            k = len(task.action_features(s))
            assert k >= 1
            assert k == action_count(task, s), s


# -- sequence tagging --

def test_sequence_shapes_and_loss():
    task = SequenceTask(["aa", "bb", "cc"], [0, 1, 2], tag_count=3)
    assert task.horizon == 3
    s = task.start_state()
    assert action_count(task, s) == 3
    feats = task.action_features(s)
    assert len(feats) == 3
    end = reach(task, (0, 1, 0))
    assert task.terminal_loss(end) == 1.0
    assert 0.0 <= task.terminal_loss(end) <= task.horizon


def test_sequence_normalized_loss():
    task = SequenceTask(["aa", "bb"], [0, 0], tag_count=2, normalize_loss=True)
    end = reach(task, (1, 1))
    assert task.terminal_loss(end) == 1.0
    end = reach(task, (1, 0))
    assert task.terminal_loss(end) == 0.5


def test_sequence_optimal_reference_returns_gold():
    task = SequenceTask(["aa", "bb", "cc"], [2, 0, 1], tag_count=3)
    ref = task.reference_policy("optimal")
    s = task.start_state()
    tags = []
    for _ in range(3):
        a = ref.choose(task, s)
        tags.append(a)
        s = task.transition(s, a)
    assert tags == [2, 0, 1]
    assert task.terminal_loss(s) == 0.0


def test_sequence_optimal_reference_minimizes_everywhere():
    for tokens, tags in gen_sequences(4, seed=5, min_len=3, max_len=5,
                                      tag_count=2):
        assert_reference_is_optimal(SequenceTask(tokens, tags, 2))


def test_sequence_bad_reference_is_seeded():
    task = SequenceTask(["aa", "bb", "cc"], [0, 0, 0], tag_count=4)
    choices1 = [task.reference_policy("bad", seed=9).choose(task, task.start_state())
                for _ in range(5)]
    choices2 = [task.reference_policy("bad", seed=9).choose(task, task.start_state())
                for _ in range(5)]
    assert choices1 == choices2


def test_hamming_cost_vectors_ignore_rollout_policy():
    # completing a one-step deviation with any fixed policy adds the same
    # suffix error count to every action, so extracted cost vectors match
    from l2s.trainer import extract_costs

    task = SequenceTask(["aa", "bb", "cc", "dd"], [0, 1, 0, 1], tag_count=2)

    class FixedTag(core.Policy):
        def __init__(self, tag):
            self.tag = tag

        def choose(self, t, s):
            return self.tag

    rollouts = [FixedTag(0), FixedTag(1), task.reference_policy("optimal")]
    for s in all_reachable_states(task):
        if s.depth == task.horizon:
            continue
        vectors = []
        for pol in rollouts:
            losses = []
            for a in range(action_count(task, s)):
                end = core.execute(task, pol, task.transition(s, a),
                                   task.horizon - s.depth - 1)
                losses.append(task.terminal_loss(end))
            vectors.append(list(extract_costs(losses)))
        assert vectors[0] == vectors[1] == vectors[2]


# -- label tree --

def test_split_left_heavy():
    assert split(0, 3) == ((0, 1), (2, 3))
    assert split(0, 4) == ((0, 2), (3, 4))
    assert split(0, 1) == ((0, 0), (1, 1))


def test_tree_walk_reaches_declared_leaf():
    for k in (2, 3, 4, 5, 8, 11):
        task = LabelTreeTask([(0, 1.0)], np.zeros(k), k)
        ends = all_end_states(task, task.start_state())
        # every label's leaf, each by exactly one walk, at the horizon
        assert sorted(s.payload for s in ends) == [(label, label)
                                                   for label in range(k)]
        assert all(s.depth == task.horizon for s in ends)


def test_tree_reference_descends_to_min_cost():
    task = LabelTreeTask([(0, 1.0)], [0.3, 0.0, 0.9, 0.9], 4)
    ref = task.reference_policy("optimal")
    s = task.start_state()
    assert ref.choose(task, s) == 0  # label 1 lives in the left half
    s = task.transition(s, 0)
    assert ref.choose(task, s) == 1  # (0,1): right child holds label 1
    assert task.terminal_loss(task.transition(s, 1)) == 0.0


def test_tree_reference_ties_left():
    task = LabelTreeTask([(0, 1.0)], [0.5, 0.5, 0.5, 0.5], 4)
    assert task.reference_policy("optimal").choose(task, task.start_state()) == 0


def test_tree_optimal_reference_minimizes_everywhere():
    g = np.random.default_rng(2)
    for k in (2, 3, 5, 8):
        costs = g.uniform(size=k)
        assert_reference_is_optimal(LabelTreeTask([(0, 1.0)], costs, k))


def test_tree_loss_bounds():
    costs = [0.2, 0.9, 0.4, 0.6]
    task = LabelTreeTask([(0, 1.0)], costs, 4)
    for e in all_end_states(task, task.start_state()):
        assert min(costs) <= task.terminal_loss(e) <= max(costs)


def test_tree_loss_of_an_inner_node_is_not_terminal():
    task = LabelTreeTask([(0, 1.0)], [0.2, 0.9, 0.4, 0.6], 4)
    with pytest.raises(L2SError, match=r"node 0\.\.3 is not a leaf"):
        task.terminal_loss(task.start_state())


# -- parsing --

def test_parse_trajectory_length_and_legality():
    for tokens, heads in gen_trees(10, seed=4):
        task = ParseTask(tokens, heads)
        n = len(tokens)
        assert task.horizon == 2 * n - 1
        for s in all_reachable_states(task):
            if s.depth < task.horizon:
                assert action_count(task, s) >= 1
            stack, buf, _, arcs = s.payload
            made = 0
            while arcs is not None:
                made, arcs = made + 1, arcs[2]
            assert made + len(stack) + (n - buf + 1) == n


def test_parse_two_token_oracle():
    # gold: token 1's head is token 2, token 2 is the root
    task = ParseTask(["x", "y"], [2, 0])
    ref = task.reference_policy("optimal")
    end = core.execute(task, ref, task.start_state(), task.horizon)
    assert core.end_loss(task, end) == 0.0
    assert task.decode(end) == [2, 0]


def test_parse_three_token_chain_reaches_zero():
    # chain 1 <- 2 <- 3, root 3
    task = ParseTask(["x", "y", "z"], [2, 3, 0])
    ref = task.reference_policy("optimal")
    end = core.execute(task, ref, task.start_state(), task.horizon)
    assert core.end_loss(task, end) == 0.0


def test_parse_optimal_reference_minimizes_everywhere():
    # every projective tree over 2..4 tokens, via the seeded generator
    for tokens, heads in gen_trees(12, seed=8, min_len=2, max_len=4):
        assert_reference_is_optimal(ParseTask(tokens, heads))


def test_parse_loss_is_one_minus_uas():
    task = ParseTask(["x", "y", "z"], [2, 3, 0])
    for e in all_end_states(task, task.start_state()):
        pred = task.decode(e)
        uas = sum(p == g for p, g in zip(pred, task.gold_heads)) / task.n
        assert task.terminal_loss(e) == pytest.approx(1.0 - uas)
        assert 0.0 <= task.terminal_loss(e) <= 1.0
        # exactly one root and every token has a head
        assert pred.count(0) == 1
        assert all(h != -1 for h in pred)


def test_parse_suboptimal_greedy_when_obvious():
    task = ParseTask(["x", "y"], [2, 0])
    sub = task.reference_policy("suboptimal", seed=0)
    s = task.start_state()
    # only one legal action (shift) => zero-cost and unique => taken
    assert sub.choose(task, s) == 0


def test_parse_suboptimal_draws_when_zero_cost_is_not_unique():
    # gold: y heads x and z. Shift, shift, then ReduceRight puts y under x,
    # after which shifting z and reducing x both lose no further gold arc
    task = ParseTask(["x", "y", "z"], [2, 0, 2])
    s = task.start_state()
    for a in (0, 0, 2):
        s = task.transition(s, a)
    legal = task.legal_actions(s)
    assert [task.action_cost(s.payload, a) for a in legal] == [0, 0]
    picks = []
    for seed in range(8):
        sub = task.reference_policy("suboptimal", seed=seed)
        want = int(rng.substream(seed, rng.REFERENCE).integers(len(legal)))
        picks.append(sub.choose(task, s))
        assert picks[-1] == want
    assert set(picks) == {0, 1}


def test_parse_transition_takes_the_slots_legal_action():
    # transition maps a slot to its transition id in closed form; check it
    # against legal_actions and the arc-hybrid rules on every reachable
    # (state, slot) pair of 40 sentences
    def arc_hybrid(task, payload, act):
        stack, buf, wrong, arcs = payload
        if act == 0:  # Shift
            return stack + (buf,), buf + 1, wrong, arcs
        dependent, head = stack[-1], buf if act == 1 else stack[-2]
        wrong += head != task.gold_heads[dependent - 1]
        return stack[:-1], buf, wrong, (dependent, head, arcs)

    # a configuration is its stack, buffer and heads: arcs made in another
    # order reach the same one, and it is expanded once
    pairs = 0
    for tokens, heads in gen_trees(40, 3, min_len=1, max_len=6):
        task = ParseTask(tokens, heads)
        frontier, seen = [task.start_state()], set()
        while frontier:
            s = frontier.pop()
            configuration = s.payload[:2], tuple(task.predicted_heads(s))
            if configuration in seen or s.depth == task.horizon:
                continue
            seen.add(configuration)
            for slot, act in enumerate(task.legal_actions(s)):
                nxt = task.transition(s, slot)
                assert nxt == core.StateRef(s.depth + 1,
                                            arc_hybrid(task, s.payload, act))
                frontier.append(nxt)
                pairs += 1
    assert pairs == 22950


def test_degenerate_task_sizes_raise_l2s_error():
    with pytest.raises(L2SError, match="empty sentence"):
        ParseTask([], [])
    with pytest.raises(L2SError, match="need at least 2 labels"):
        LabelTreeTask([(0, 1.0)], [0.5], label_count=1)


def test_gold_labels_are_checked_when_built():
    # an empty tagged sentence ended in ZeroDivisionError under
    # normalize_loss, a short gold list trained with loss 0.0, a tag past
    # the tag count trained on all-zero cost vectors, a short head list
    # ended in IndexError, and a head past the sentence trained
    with pytest.raises(L2SError, match="empty sentence"):
        SequenceTask([], [], 3, normalize_loss=True)
    for gold in ([0], [0, 1, 2]):
        with pytest.raises(L2SError, match=f"{len(gold)} gold tags for 2 tokens"):
            SequenceTask(["a", "b"], gold, 3)
    for tag in (3, -1):
        with pytest.raises(L2SError, match=rf"gold tag {tag} outside 0\.\.2"):
            SequenceTask(["a", "b"], [0, tag], 3)
    with pytest.raises(L2SError, match="2 gold heads for 3 tokens"):
        ParseTask(["a", "b", "c"], [2, 0])
    for head in (7, -1):
        with pytest.raises(L2SError, match=rf"gold head {head} outside 0\.\.2"):
            ParseTask(["a", "b"], [head, 0])


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_sequence_carried_loss_equals_the_decoded_loss(data, normalize):
    n, k = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 4))
    gold = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    task = SequenceTask([f"w{i}" for i in range(n)], gold, k,
                        normalize_loss=normalize)
    state, tags = task.start_state(), []
    while state.depth < task.horizon:
        tags.append(data.draw(st.integers(0, k - 1)))
        state = task.transition(state, tags[-1])
        assert task.decode(state) == tags
    wrong = sum(p != g for p, g in zip(tags, gold))
    assert task.terminal_loss(state) == (wrong / n if normalize
                                         else float(wrong))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_carried_loss_equals_the_decoded_loss(data):
    # any gold heads in 0..n, trees or not; the heads are replayed here by
    # the arc-hybrid rules from the transition ids taken
    n = data.draw(st.integers(1, 7))
    gold = data.draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    task = ParseTask(["w"] * n, gold)
    state, stack, buf, heads = task.start_state(), [], 1, [-1] * n
    while state.depth < task.horizon:
        legal = task.legal_actions(state)
        slot = data.draw(st.integers(0, len(legal) - 1))
        if legal[slot] == 0:
            stack, buf = stack + [buf], buf + 1
        else:
            dependent = stack.pop()
            heads[dependent - 1] = buf if legal[slot] == 1 else stack[-1]
        state = task.transition(state, slot)
    heads[stack[0] - 1] = 0
    assert task.decode(state) == heads
    wrong = sum(p != g for p, g in zip(heads, gold))
    assert task.terminal_loss(state) == wrong / n


def test_label_tree_input_is_checked_when_built():
    # a short cost vector ended in numpy errors inside the reference and
    # the trainer, and a non-finite value at the first action_features,
    # naming a hashed index
    with pytest.raises(L2SError, match="expected 4 costs"):
        LabelTreeTask([(0, 1.0)], [0.0, 1.0], 4)
    with pytest.raises(L2SError, match="expected 2 costs"):
        LabelTreeTask([(0, 1.0)], [[0.0, 1.0]], 2)
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(L2SError, match="non-finite value .* at feature index 3"):
            LabelTreeTask([(3, value)], [0.0, 1.0], 2)
    with pytest.raises(L2SError, match="overflow when summed"):
        LabelTreeTask([(3, 1e308), (4, -1e308)], [0.0, 1.0], 2)


# -- synthetic data --

def test_generators_are_seeded():
    assert gen_sequences(5, seed=1) == gen_sequences(5, seed=1)
    assert gen_trees(5, seed=1) == gen_trees(5, seed=1)
    a = gen_multiclass(5, seed=1)
    b = gen_multiclass(5, seed=1)
    assert all(pa == pb and np.array_equal(ca, cb)
               for (pa, ca), (pb, cb) in zip(a, b))


def test_multiclass_costs_in_unit_interval_with_zero_gold():
    for pairs, costs in gen_multiclass(50, seed=2):
        assert costs.min() == 0.0
        assert costs.max() <= 1.0


def test_trees_are_projective_single_root():
    for tokens, heads in gen_trees(20, seed=3):
        assert heads.count(0) == 1
        n = len(tokens)
        for i, h in enumerate(heads, start=1):
            assert 0 <= h <= n and h != i
        # projectivity: arcs (min(i,h), max(i,h)) never cross
        arcs = [(min(i, h), max(i, h)) for i, h in enumerate(heads, 1) if h]
        for (a, b), (c, d) in itertools.combinations(arcs, 2):
            assert not (a < c < b < d or c < a < d < b)


# -- on-disk formats --

def test_sentence_round_trip(tmp_path):
    data = [(["aa", "bb"], [0, 1], [2, 0]), (["cc"], [1], [0])]
    p = tmp_path / "sents.tsv"
    write_sentences(p, data)
    assert read_sentences(p) == data


def test_sentence_partial_columns(tmp_path):
    p = tmp_path / "s.tsv"
    write_sentences(p, [(["aa", "bb"], [0, 1], None)])
    assert read_sentences(p) == [(["aa", "bb"], [0, 1], None)]


def test_sentence_format_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("tok\t0\n")
    with pytest.raises(DataFormatError) as e:
        read_sentences(p)
    assert e.value.line == 1
    p.write_text("tok\tnotanint\t0\n\n")
    with pytest.raises(DataFormatError):
        read_sentences(p)


def test_multiclass_round_trip(tmp_path):
    data = [([(0, 1.0), (3, 2.5)], [0.0, 0.5]), ([(1, 1.0)], [1.0, 0.25])]
    p = tmp_path / "mc.csv"
    write_multiclass(p, data)
    back = read_multiclass(p)
    assert back == data


def test_multiclass_format_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("0:1.0,0.5,0.5\n1:1.0,0.5\n")
    with pytest.raises(DataFormatError) as e:
        read_multiclass(p)
    assert e.value.line == 2
    p.write_text("nocolon,1.0\n")
    with pytest.raises(DataFormatError):
        read_multiclass(p)
    # each value finite, their sum not: the label tree would add them
    p.write_text("0:1.0,0.5,0.5\n1:1e308 2:-1e308,0.5,0.5\n")
    with pytest.raises(DataFormatError) as e:
        read_multiclass(p)
    assert e.value.line == 2
