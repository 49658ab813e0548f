"""Cost-sensitive multiclass via a binary search tree over the label set.

Labels 0..k-1 are split at the midpoint (left-heavy) recursively; a
trajectory walks root to leaf and pays the cost of the leaf's label.
Singleton nodes expose one padding action so every trajectory has the
same length ceil(log2 k).
"""

import math

import numpy as np

from .. import rng
from ..core import Policy, SearchTask, StateRef, argmin
from ..sparse import ActionFeatures, from_pairs, hash_index

DEFAULT_BASE_BITS = 14


def split(lo, hi):
    """Left-heavy midpoint split of the label range [lo, hi]."""
    n = hi - lo + 1
    mid = lo + (n + 1) // 2 - 1
    return (lo, mid), (mid + 1, hi)


def leaf_path(k, label):
    """Branch sequence (0=left, 1=right) spelling `label`'s leaf, padded."""
    horizon = max(1, math.ceil(math.log2(k))) if k > 1 else 1
    lo, hi = 0, k - 1
    path = []
    while lo < hi:
        left, right = split(lo, hi)
        if label <= left[1]:
            path.append(0)
            lo, hi = left
        else:
            path.append(1)
            lo, hi = right
    path.extend([0] * (horizon - len(path)))
    return path


class LabelTreeTask(SearchTask):
    """One cost-sensitive example as a root-to-leaf search problem."""

    def __init__(self, features, costs, label_count, instance_id=0,
                 base_bits=DEFAULT_BASE_BITS):
        if label_count < 2:
            raise ValueError("need at least 2 labels")
        self.example_features = list(features)  # (index, value) pairs
        self.costs = np.asarray(costs, dtype=np.float64)
        self.k = label_count
        self.instance_id = instance_id
        self.base = 1 << base_bits
        self.horizon = math.ceil(math.log2(label_count))
        self.dimension = 2 * self.base
        self.action_arity_bound = 2

    def start_state(self):
        return StateRef(self.instance_id, 0, (0, self.k - 1))

    def action_count(self, state):
        if state.depth >= self.horizon:
            return 0
        lo, hi = state.payload
        return 2 if lo < hi else 1

    def transition(self, state, action):
        lo, hi = state.payload
        if lo == hi:
            nxt = (lo, hi)  # padding below a singleton node
        else:
            nxt = split(lo, hi)[action]
        return StateRef(self.instance_id, state.depth + 1, nxt)

    def action_features(self, state):
        lo, hi = state.payload
        node = f"n{lo}_{hi}"
        pairs = [(hash_index(node + ":bias", self.base), 1.0)]
        for i, v in self.example_features:
            pairs.append((hash_index(f"{node}:f{i}", self.base), v))
        return ActionFeatures(from_pairs(pairs, self.base),
                              tuple(range(self.action_count(state))), self.dimension)

    def terminal_loss(self, state):
        lo, hi = state.payload
        assert lo == hi, "terminal state must be a leaf"
        return float(self.costs[lo])

    def decode(self, state):
        return state.payload[0]

    def reference_policy(self, quality="optimal", seed=0):
        return TreeReference(self, quality, seed)


class TreeReference(Policy):
    """Descends toward the min-cost label (ties: left child).

    suboptimal follows the optimal choice with probability 1/2, bad is a
    seeded uniform choice over live actions.
    """

    def __init__(self, task, quality, seed):
        self.task = task
        self.quality = quality
        self.generator = rng.substream(seed, rng.REFERENCE)

    def choose(self, task, state):
        lo, hi = state.payload
        if lo == hi:
            return 0
        if self.quality == "bad" or (
            self.quality == "suboptimal" and self.generator.random() >= 0.5
        ):
            return int(self.generator.integers(2))
        left, right = split(lo, hi)
        lmin = self.task.costs[left[0]:left[1] + 1].min()
        rmin = self.task.costs[right[0]:right[1] + 1].min()
        return argmin([lmin, rmin], "lowest")
