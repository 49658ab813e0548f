"""Online cost-sensitive one-against-all learner.

A single squared-loss regressor over per-action feature vectors: predict
the action whose predicted cost is smallest, update by one online
gradient step per (features, cost) pair. Step size decays as
eta0 / sqrt(m) where m counts update() calls.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import sparse
from .core import LinearPolicy, argmin
from .errors import L2SError

MAGIC = b"CSLEARN1"
FORMAT_VERSION = 1
# version, dimension, eta0, update count
HEADER = struct.Struct("<IQdQ")


@dataclass
class CostSensitiveExample:
    """Per-decision-point record: the state's K-action ActionFeatures and
    a K-dim cost vector.

    Examples extracted from rollouts have min(costs) == 0; importance-
    weighted bandit examples may not.
    """

    per_action_features: sparse.ActionFeatures
    costs: np.ndarray

    def __post_init__(self):
        self.costs = np.asarray(self.costs, dtype=np.float64)
        if len(self.per_action_features) == 0:
            raise L2SError("example with no actions")
        if len(self.per_action_features) != len(self.costs):
            raise L2SError("feature list and cost vector lengths differ")
        if not all(map(math.isfinite, self.costs.tolist())):
            raise L2SError(f"costs {self.costs}")


class CostSensitiveLearner:
    """CSOAA over sparse per-action features: one dense squared-loss
    regressor updated by plain OGD."""

    def __init__(self, dimension, eta0=0.5):
        self.weights = np.zeros(dimension, dtype=np.float64)
        self.eta0 = eta0
        self.updates = 0

    @property
    def dimension(self):
        return len(self.weights)

    def predict(self, example):
        """Argmin of predicted costs; ties go to the lowest action index."""
        return argmin(example.per_action_features.scores(self.weights))

    def update(self, example):
        """One sequential gradient pass over the example's (x, c) pairs.

        The scores taken once before the pass are w.x for each block not
        yet written in this update; only a repeated block is scored again.
        """
        f = example.per_action_features
        scores = f.scores(self.weights)
        costs = example.costs.tolist()
        self.updates += 1
        lr = self.eta0 / math.sqrt(self.updates)
        w = memoryview(self.weights)
        written = set()
        for b, c, wx in zip(f.blocks, costs, scores):
            # w -= lr * 2 * (w.x - c) * x on block b, live indices only
            offset = b * f.shared.dimension
            if b in written:
                wx = sparse.dot(w, f.shared, (b,))[0]
            written.add(b)
            g = 2.0 * lr * (wx - c)
            if not math.isfinite(g):
                raise L2SError(f"update step {g} at learning rate {lr}")
            for i, v in f.shared.pairs:
                w[offset + i] -= g * v

    def policy(self):
        """Snapshot of the current argmin policy (weights copied)."""
        return LinearPolicy(self.weights.copy())

    # -- persistence: versioned flat binary file, bit-exact round trip --

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(HEADER.pack(FORMAT_VERSION, self.dimension,
                                 self.eta0, self.updates))
            # the weights' own buffer: no copy where float64 is little-endian
            fh.write(self.weights.astype("<f8", copy=False))

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise L2SError(f"model file magic {magic!r}, expected {MAGIC!r}")
            header = fh.read(HEADER.size)
            if len(header) != HEADER.size:
                raise L2SError(f"model header truncated to {len(header)} bytes")
            version, d, eta0, updates = HEADER.unpack(header)
            if version != FORMAT_VERSION:
                raise L2SError(f"model format version {version}, "
                               f"expected {FORMAT_VERSION}")
            # sized from the file before anything is allocated, so a header
            # declaring more weights than the file holds allocates nothing
            payload = os.fstat(fh.fileno()).st_size - fh.tell()
            if payload == 8 * d:
                w = np.empty(d, dtype="<f8")
                payload = fh.readinto(w)
        if payload != 8 * d:
            raise L2SError(f"model holds {payload} weight bytes, "
                           f"header says {d} weights")
        if not np.all(np.isfinite(w)):
            raise L2SError("model has non-finite weights")
        # the weights read are the learner's own: no zero vector first
        learner = cls.__new__(cls)
        learner.weights, learner.eta0, learner.updates = w, eta0, updates
        return learner
