"""Online cost-sensitive one-against-all learner.

A single squared-loss regressor over per-action feature vectors: predict
the action whose predicted cost is smallest, update by one online
gradient step per (features, cost) pair. Step size decays as
eta0 / sqrt(m) where m counts update() calls.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import sparse
from .core import LinearPolicy, act, argmin
from .errors import (
    Diverged, DimensionMismatch, EmptyActionSet, NonFiniteCost, L2SError)

MAGIC = b"CSLEARN1"
FORMAT_VERSION = 1
# version, dimension, eta0, update count
HEADER = struct.Struct("<IQdQ")


@dataclass
class CostSensitiveExample:
    """Per-decision-point record: the state's K-action ActionFeatures and
    a K-dim cost vector.

    Examples extracted from rollouts have min(costs) == 0; raw
    importance-weighted bandit examples may not and carry raw=True.
    """

    per_action_features: sparse.ActionFeatures
    costs: np.ndarray
    raw: bool = False

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        if len(self.per_action_features) == 0:
            raise EmptyActionSet("example with no actions")
        if len(self.per_action_features) != len(self.costs):
            raise DimensionMismatch("feature list and cost vector lengths differ")
        if not np.all(np.isfinite(self.costs)):
            raise NonFiniteCost(f"costs {self.costs}")


@dataclass
class RegretLedger:
    """Running account of the learner's cumulative cost.

    When `examples` is kept, cs_regret can replay the whole stream
    against an explicit comparator set.
    """

    cum_alg_cost: float = 0.0
    count: int = 0
    examples: list = field(default_factory=list)
    chosen: list = field(default_factory=list)


class OnlineRegressor:
    """Dense-weight squared-loss regressor updated by plain OGD."""

    def __init__(self, dimension, eta0=0.5):
        self.weights = np.zeros(dimension, dtype=np.float64)
        self.eta0 = eta0

    @property
    def dimension(self):
        return len(self.weights)

    def step(self, features, cost, lr, offset=0):
        # w -= lr * 2 * (w.x - c) * x on the block at `offset`, live indices only
        g = 2.0 * lr * (sparse.dot(self.weights, features, offset) - cost)
        if not math.isfinite(g):
            raise Diverged(f"update step {g} at learning rate {lr}")
        for i, v in features.pairs:
            self.weights[offset + i] -= g * v


class CostSensitiveLearner:
    """CSOAA over sparse per-action features with regret accounting."""

    def __init__(self, dimension, eta0=0.5, record_examples=True):
        self.regressor = OnlineRegressor(dimension, eta0)
        self.updates = 0
        self.ledger = RegretLedger()
        self.record_examples = record_examples

    @property
    def dimension(self):
        return self.regressor.dimension

    @property
    def weights(self):
        return self.regressor.weights

    def predict(self, example):
        """Argmin of predicted costs; ties go to the lowest action index."""
        return argmin(example.per_action_features.scores(self.weights), "lowest")

    def update(self, example):
        """One sequential gradient pass over the example's (x, c) pairs.

        The ledger accrues the cost of the label predict() would have
        chosen immediately before this update.
        """
        chosen = self.predict(example)
        self.ledger.cum_alg_cost += float(example.costs[chosen])
        self.ledger.count += 1
        self.ledger.chosen.append(chosen)
        if self.record_examples:
            self.ledger.examples.append(example)
        self.updates += 1
        lr = self.regressor.eta0 / math.sqrt(self.updates)
        f = example.per_action_features
        for b, c in zip(f.blocks, example.costs):
            self.regressor.step(f.shared, float(c), lr, b * f.shared.dimension)

    def policy(self, tie_break="lowest"):
        """Snapshot of the current argmin policy (weights copied)."""
        return LinearPolicy(self.weights.copy(), tie_break=tie_break)

    def cs_regret(self, comparator_policies):
        """Cumulative algorithm cost minus the best fixed comparator's cost.

        Comparators are callables example -> action index.
        """
        if self.ledger.count == 0:
            return 0.0
        if not comparator_policies:
            raise L2SError("comparator set is empty")
        if not self.ledger.examples:
            raise L2SError("ledger did not record examples; cannot replay")
        best = min(
            sum(float(ex.costs[h(ex)]) for ex in self.ledger.examples)
            for h in comparator_policies
        )
        return self.ledger.cum_alg_cost - best

    # -- persistence: versioned flat binary file, bit-exact round trip --

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(HEADER.pack(FORMAT_VERSION, self.dimension,
                                 self.regressor.eta0, self.updates))
            fh.write(self.weights.astype("<f8").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise L2SError(f"bad model file magic {magic!r}")
            header = fh.read(HEADER.size)
            if len(header) != HEADER.size:
                raise L2SError(f"model header truncated to {len(header)} bytes")
            version, d, eta0, updates = HEADER.unpack(header)
            if version != FORMAT_VERSION:
                raise L2SError(f"unsupported model format version {version}")
            payload = fh.read()
        if len(payload) != 8 * d:
            raise L2SError(f"model holds {len(payload)} weight bytes, "
                           f"header says {d} weights")
        w = np.frombuffer(payload, dtype="<f8").copy()
        if not np.all(np.isfinite(w)):
            raise L2SError("model has non-finite weights")
        learner = cls(d, eta0)
        learner.regressor.weights = w
        learner.updates = updates
        return learner


def comparator_from_policy(policy):
    """Adapt a LinearPolicy into an example-level comparator."""
    return lambda example: act(policy, example.per_action_features)
