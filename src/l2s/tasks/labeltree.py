"""Cost-sensitive multiclass via a binary search tree over the label set.

Labels 0..k-1 are split at the midpoint (left-heavy) recursively; a
trajectory walks root to leaf and pays the cost of the leaf's label.
Singleton nodes expose one padding action so every trajectory has the
same length ceil(log2 k).
"""

import math

import numpy as np

from ..core import SearchTask, SeededReference, StateRef, argmin
from ..errors import L2SError
from ..sparse import FEATURE_CACHE_SIZE, ActionFeatures, from_pairs, hash_index

BASE_BITS = 14
BASE = 1 << BASE_BITS
#: pairs the feature cache may hold, an entry holding its row's width
#: + 1: room for FEATURE_CACHE_SIZE entries of rows up to 7 features
#: wide; a bound on its memory, not a setting
PAIR_BOUND = 8 * FEATURE_CACHE_SIZE
# the blocks of a singleton node's padding action and of a node's two
# children, indexed by lo < hi: one tuple each, shared by every entry
_BLOCKS = ((0,), (0, 1))


class _FeatureCache(dict):
    """The ActionFeatures of every state at node (lo, hi) of a task whose
    feature pairs are `row`, keyed by (lo, hi, row), built on a miss.
    Each entry counts its row's width + 1 pairs, and the cache is
    emptied before their sum would pass PAIR_BOUND; a row too wide for
    the bound is built and not kept."""

    def __init__(self):
        super().__init__()
        self.pairs = 0

    def clear(self):
        super().clear()
        self.pairs = 0

    def __missing__(self, key):
        lo, hi, row = key
        node = f"n{lo}_{hi}"
        pairs = [(hash_index(node + ":bias", BASE), 1.0)]
        pairs += [(hash_index(f"{node}:f{i}", BASE), v) for i, v in row]
        feats = ActionFeatures(from_pairs(pairs, BASE), _BLOCKS[lo < hi],
                               2 * BASE)
        if len(pairs) <= PAIR_BOUND:
            if self.pairs + len(pairs) > PAIR_BOUND:
                self.clear()
            self[key] = feats
            self.pairs += len(pairs)
        return feats


_features = _FeatureCache()


def split(lo, hi):
    """Left-heavy midpoint split of the label range [lo, hi]."""
    n = hi - lo + 1
    mid = lo + (n + 1) // 2 - 1
    return (lo, mid), (mid + 1, hi)


def _index(i):
    """A feature index that is not a Python int: a numpy integer's int,
    or an L2SError."""
    if isinstance(i, np.integer):
        return int(i)
    raise L2SError(f"feature index {i!r} is not an int")


class LabelTreeTask(SearchTask):
    """One cost-sensitive example as a root-to-leaf search problem."""

    def __init__(self, features, costs, label_count):
        if label_count < 2:
            raise L2SError("need at least 2 labels")
        self.costs = np.asarray(costs, dtype=np.float64)
        if self.costs.shape != (label_count,):
            raise L2SError(f"cost vector of shape {self.costs.shape}, "
                           f"expected {label_count} costs")
        # the (index, value) pairs as one tuple, the feature cache's key:
        # an index that equals an int without being one (1.0, True) would
        # share that int's entry while spelling another key
        row = tuple([(i if type(i) is int else _index(i), float(v))
                     for i, v in features])
        if not math.isfinite(sum([abs(v) for _, v in row])):
            bad = [(i, v) for i, v in row if not math.isfinite(v)]
            raise L2SError(f"non-finite value {bad[0][1]} at feature index "
                           f"{bad[0][0]}" if bad else
                           "feature values overflow when summed")
        self.example_features = row
        self.k = label_count
        self.base = BASE
        self.horizon = math.ceil(math.log2(label_count))
        self.dimension = 2 * self.base

    def start_state(self):
        return StateRef(0, (0, self.k - 1))

    def transition(self, state, action):
        lo, hi = state.payload
        if lo == hi:
            nxt = (lo, hi)  # padding below a singleton node
        else:
            nxt = split(lo, hi)[action]
        return StateRef(state.depth + 1, nxt)

    def feature_key(self, state):
        return state.payload

    def action_features(self, state):
        lo, hi = state.payload
        return _features[lo, hi, self.example_features]

    def terminal_loss(self, state):
        lo, hi = state.payload
        if lo != hi:
            raise L2SError(f"node {lo}..{hi} is not a leaf")
        return float(self.costs[lo])

    def decode(self, state):
        return state.payload[0]

    def reference_policy(self, quality="optimal", seed=0):
        return TreeReference(self, quality, seed)


class TreeReference(SeededReference):
    """Descends toward the min-cost label (ties: left child).

    suboptimal follows the optimal choice with probability 1/2, bad is a
    seeded uniform choice over live actions.
    """

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
        return argmin([lmin, rmin])
