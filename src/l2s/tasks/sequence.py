"""Left-to-right sequence tagging under Hamming loss."""

import functools

from ..core import SearchTask, SeededReference, StateRef
from ..sparse import (TOKEN_CACHE_SIZE, ActionFeatures, SparseFeatures,
                      hash_index)

BASE_BITS = 15
BASE = 1 << BASE_BITS
_BIAS = hash_index("bias", BASE)
# the tm1= indices of tags 0..255, the tags a data file may hold; a tag
# beyond them, which only the API can give, is hashed where it is met
_TAGS = tuple(hash_index(f"tm1={tag}", BASE) for tag in range(256))


@functools.lru_cache(maxsize=TOKEN_CACHE_SIZE)
def _token_keys(token):
    """The indices of the keys that read one token, as the current word
    (w=, p2=, s2=), the previous word (wm1=) and the next word (wp1=).
    The sentence boundaries read the tokens `<s>` and `</s>`."""
    return (hash_index("w=" + token, BASE), hash_index("p2=" + token[:2], BASE),
            hash_index("s2=" + token[-2:], BASE), hash_index("wm1=" + token, BASE),
            hash_index("wp1=" + token, BASE))


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
        word, prefix, suffix, _, _ = _token_keys(tokens[t])
        if tags and tags[-1] < len(_TAGS):
            tag = _TAGS[tags[-1]]
        else:
            tag = hash_index(f"tm1={tags[-1] if tags else '<s>'}", BASE)
        idx = sorted({_BIAS, word, prefix, suffix,
                      _token_keys(tokens[t - 1] if t else "<s>")[3],
                      _token_keys(tokens[t + 1] if t + 1 < self.horizon else "</s>")[4],
                      tag})
        return ActionFeatures(SparseFeatures(tuple((i, 1.0) for i in idx), self.base),
                              tuple(range(self.tag_count)), self.dimension)

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
