"""Left-to-right sequence tagging under Hamming loss."""

import functools

from ..core import SearchTask, SeededReference, StateRef
from ..sparse import (FEATURE_CACHE_SIZE, TOKEN_CACHE_SIZE, ActionFeatures,
                      SparseFeatures, hash_index)

BASE_BITS = 15
BASE = 1 << BASE_BITS
_BIAS = (hash_index("bias", BASE), 1.0)
# the tm1= pairs of tags 0..255, the tags a data file may hold; a tag
# beyond them, which only the API can give, is hashed where it is met
_TAGS = tuple((hash_index(f"tm1={tag}", BASE), 1.0) for tag in range(256))


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


@functools.lru_cache(maxsize=256)
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

    State payload is the tuple of tags predicted so far; the loss of an
    end state is the Hamming distance to the gold tags (optionally
    divided by length for bandit use).
    """

    def __init__(self, tokens, gold_tags, tag_count, normalize_loss=False):
        self.tokens = list(tokens)
        self.gold_tags = list(gold_tags)
        self.tag_count = tag_count
        self.base = BASE
        self.horizon = len(self.tokens)
        self.dimension = tag_count * self.base
        self.normalize_loss = normalize_loss

    def start_state(self):
        return StateRef(0, ())

    def transition(self, state, action):
        return StateRef(state.depth + 1, state.payload + (action,))

    def feature_key(self, state):
        return state.depth, state.payload[-1] if state.payload else None

    def action_features(self, state):
        t, tokens, tags = state.depth, self.tokens, state.payload
        return _features(tokens[t - 1] if t else "<s>", tokens[t],
                         tokens[t + 1] if t + 1 < self.horizon else "</s>",
                         tags[-1] if tags else None, self.tag_count)

    def terminal_loss(self, state):
        wrong = sum(1 for p, g in zip(state.payload, self.gold_tags) if p != g)
        return wrong / self.horizon if self.normalize_loss else float(wrong)

    def decode(self, state):
        return list(state.payload)

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
