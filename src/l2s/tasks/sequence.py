"""Left-to-right sequence tagging under Hamming loss."""

import functools

from ..core import SearchTask, SeededReference, StateRef
from ..errors import L2SError
from ..sparse import (FEATURE_CACHE_SIZE, TOKEN_CACHE_SIZE, ActionFeatures,
                      SparseFeatures, hash_index)

BASE_BITS = 15
BASE = 1 << BASE_BITS
# the tags a data file may hold are 0..MAX_TAG_COUNT - 1; a model
# holds tag count x 2^15 weights: 64 MiB at this bound
MAX_TAG_COUNT = 256
_BIAS = (hash_index("bias", BASE), 1.0)
# the tm1= pairs of the tags a data file may hold; a tag beyond them,
# which only the API can give, is hashed where it is met
_TAGS = tuple((hash_index(f"tm1={tag}", BASE), 1.0)
              for tag in range(MAX_TAG_COUNT))


@functools.lru_cache(maxsize=TOKEN_CACHE_SIZE)
def _token_keys(token):
    """The (index, 1.0) pairs of the keys that read one token, as the
    current word (w=, p2=, s2=), the previous word (wm1=) and the next
    word (wp1=): one tuple per pair, shared by every cached feature set
    that holds it. The sentence boundaries read the tokens `<s>` and
    `</s>`."""
    return tuple((hash_index(key, BASE), 1.0) for key in (
        "w=" + token, "p2=" + token[:2], "s2=" + token[-2:], "wm1=" + token,
        "wp1=" + token))


@functools.lru_cache(maxsize=MAX_TAG_COUNT)
def _blocks(tag_count):
    """One action block per tag: one tuple per tag count, however many
    cached feature sets hold it."""
    return tuple(range(tag_count))


@functools.lru_cache(maxsize=FEATURE_CACHE_SIZE)
def _features(previous, token, following, tag, tag_count):
    """The ActionFeatures of every state that reads this context: the
    previous, current and next token, the last tag (None before the
    first) and the tag count."""
    word, prefix, suffix, _, _ = _token_keys(token)
    if tag is not None and tag < len(_TAGS):
        tag = _TAGS[tag]
    else:
        tag = (hash_index(f"tm1={'<s>' if tag is None else tag}", BASE), 1.0)
    pairs = sorted({_BIAS, word, prefix, suffix, _token_keys(previous)[3],
                    _token_keys(following)[4], tag})
    return ActionFeatures(SparseFeatures(tuple(pairs), BASE), _blocks(tag_count),
                          tag_count * BASE)


class SequenceTask(SearchTask):
    """Predict one tag per token, left to right.

    State payload is (tag, wrong_so_far, parent): the last tag (None at
    the start), the count of tags so far that differ from gold, and the
    payload before it (None at the start). The loss of an end state is
    that count, the Hamming distance to the gold tags (optionally divided
    by length for bandit use).
    """

    def __init__(self, tokens, gold_tags, tag_count, normalize_loss=False):
        self.tokens = list(tokens)
        self.gold_tags = list(gold_tags)
        if not self.tokens:
            raise L2SError("empty sentence")
        if len(self.gold_tags) != len(self.tokens):
            raise L2SError(f"{len(self.gold_tags)} gold tags for "
                           f"{len(self.tokens)} tokens")
        for tag in self.gold_tags:
            if not 0 <= tag < tag_count:
                raise L2SError(f"gold tag {tag} outside 0..{tag_count - 1}")
        self.tag_count = tag_count
        self.base = BASE
        self.horizon = len(self.tokens)
        self.dimension = tag_count * self.base
        self.normalize_loss = normalize_loss

    def start_state(self):
        return StateRef(0, (None, 0, None))

    def transition(self, state, action):
        depth, payload = state
        wrong = payload[1] + (action != self.gold_tags[depth])
        return StateRef(depth + 1, (action, wrong, payload))

    def feature_key(self, state):
        return state.depth, state.payload[0]

    def action_features(self, state):
        t, tokens = state.depth, self.tokens
        return _features(tokens[t - 1] if t else "<s>", tokens[t],
                         tokens[t + 1] if t + 1 < self.horizon else "</s>",
                         state.payload[0], self.tag_count)

    def terminal_loss(self, state):
        wrong = state.payload[1]
        return wrong / self.horizon if self.normalize_loss else float(wrong)

    def decode(self, state):
        tags = []
        tag, _, parent = state.payload
        while parent is not None:
            tags.append(tag)
            tag, _, parent = parent
        return tags[::-1]

    def reference_policy(self, quality="optimal", seed=0):
        return SequenceReference(self, quality, seed)


class SequenceReference(SeededReference):
    """Gold-tag reference with controllable quality.

    optimal: the gold tag at the current position.
    suboptimal: gold with probability 1/2, else a seeded uniform tag.
    bad: a seeded uniform tag.
    """

    def choose(self, task, state):
        gold = self.task.gold_tags[state.depth]
        if self.quality == "optimal":
            return gold
        if self.quality == "suboptimal" and self.generator.random() < 0.5:
            return gold
        return int(self.generator.integers(self.task.tag_count))
