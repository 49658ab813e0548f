"""Left-to-right sequence tagging under Hamming loss."""

from .. import rng
from ..core import Policy, SearchTask, StateRef
from ..errors import MissingGold
from ..sparse import ActionFeatures, SparseFeatures, hash_index

DEFAULT_BASE_BITS = 15


class SequenceTask(SearchTask):
    """Predict one tag per token, left to right.

    State payload is the tuple of tags predicted so far; the loss of an
    end state is the Hamming distance to the gold tags (optionally
    divided by length for bandit use).
    """

    def __init__(self, tokens, gold_tags, tag_count, instance_id=0,
                 base_bits=DEFAULT_BASE_BITS, normalize_loss=False):
        self.tokens = list(tokens)
        self.gold_tags = list(gold_tags) if gold_tags is not None else None
        self.tag_count = tag_count
        self.instance_id = instance_id
        self.base = 1 << base_bits
        self.horizon = len(self.tokens)
        self.dimension = tag_count * self.base
        self.action_arity_bound = tag_count
        self.normalize_loss = normalize_loss

    def start_state(self):
        return StateRef(self.instance_id, 0, ())

    def action_count(self, state):
        return 0 if state.depth >= self.horizon else self.tag_count

    def transition(self, state, action):
        return StateRef(self.instance_id, state.depth + 1,
                        state.payload + (action,))

    def _base_keys(self, state):
        t = state.depth
        tok = self.tokens[t]
        keys = [
            "bias",
            "w=" + tok,
            "p2=" + tok[:2],
            "s2=" + tok[-2:],
            "wm1=" + (self.tokens[t - 1] if t > 0 else "<s>"),
            "wp1=" + (self.tokens[t + 1] if t + 1 < self.horizon else "</s>"),
            "tm1=" + (str(state.payload[-1]) if state.payload else "<s>"),
        ]
        return keys

    def action_features(self, state):
        idx = sorted({hash_index(k, self.base) for k in self._base_keys(state)})
        return ActionFeatures(SparseFeatures(tuple((i, 1.0) for i in idx), self.base),
                              tuple(range(self.action_count(state))), self.dimension)

    def terminal_loss(self, state):
        if self.gold_tags is None:
            raise MissingGold("unlabeled sequence has no loss")
        wrong = sum(1 for p, g in zip(state.payload, self.gold_tags) if p != g)
        return wrong / self.horizon if self.normalize_loss else float(wrong)

    def decode(self, state):
        return list(state.payload)

    def reference_policy(self, quality="optimal", seed=0):
        if self.gold_tags is None:
            raise MissingGold("reference policy needs gold tags")
        return SequenceReference(self, quality, seed)


class SequenceReference(Policy):
    """Gold-tag reference with controllable quality.

    optimal: the gold tag at the current position.
    suboptimal: gold with probability 1/2, else a seeded uniform tag.
    bad: a seeded uniform tag.
    """

    def __init__(self, task, quality, seed):
        self.task = task
        self.quality = quality
        self.generator = rng.substream(seed, rng.REFERENCE)

    def choose(self, task, state):
        gold = self.task.gold_tags[state.depth]
        if self.quality == "optimal":
            return gold
        if self.quality == "suboptimal":
            if self.generator.random() < 0.5:
                return gold
            return int(self.generator.integers(self.task.tag_count))
        if self.quality == "bad":
            return int(self.generator.integers(self.task.tag_count))
        raise ValueError(f"unknown reference quality {self.quality!r}")


def accuracy(task, predicted_tags):
    """Per-token tag accuracy against gold."""
    if task.gold_tags is None:
        raise MissingGold("no gold tags")
    right = sum(1 for p, g in zip(predicted_tags, task.gold_tags) if p == g)
    return right / len(task.gold_tags)
