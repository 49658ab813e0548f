"""Sparse feature vectors with a fixed ambient dimension.

Every score and every gradient dot product in l2s is `dot`: an explicit
left-to-right loop from 0 over Python floats read through a memoryview.
Builtin `sum()` is deliberately not used: from Python 3.12 it sums
floats with compensation, so `sum([1e16, 1.0, -1e16])` is 1.0 there and
0.0 on 3.11, and model files would depend on the interpreter. Numpy
reductions are not used either: they sum pairwise, in another order,
and a gather costs more than it saves on states scored only once.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import L2SError

#: entries of each task module's per-token key cache: a bound on its
#: memory, not a setting
TOKEN_CACHE_SIZE = 1 << 14
#: entries of each task module's cache of whole ActionFeatures, keyed by
#: the context a state's features read: a bound on its memory, not a
#: setting
FEATURE_CACHE_SIZE = 1 << 14


@dataclass(frozen=True)
class SparseFeatures:
    """Index/value pairs into a d-dimensional space.

    Indices are strictly increasing with no duplicates; values are finite.
    """

    pairs: tuple
    dimension: int

    def __post_init__(self):
        last = -1
        for i, v in self.pairs:
            if not (last < i < self.dimension):
                raise L2SError(
                    f"index {i} out of order or outside [0, {self.dimension})"
                )
            if not math.isfinite(v):
                raise L2SError(f"non-finite value at index {i}")
            last = i


@dataclass(frozen=True)
class ActionFeatures:
    """One state's features in the label-dependent block layout: action a
    reads weight blocks[a] * base + i for each pair (i, v) of `shared`,
    base = shared.dimension. Block ids may repeat.
    """

    shared: SparseFeatures
    blocks: tuple
    dimension: int

    def __len__(self):
        return len(self.blocks)

    def scores(self, weights):
        """Predicted cost of every action as a list of Python floats, each
        summed left to right by `dot`."""
        if len(weights) != self.dimension:
            raise L2SError(
                f"feature dimension {self.dimension} != weights {len(weights)}")
        w = memoryview(np.asarray(weights, dtype=np.float64))
        base = self.shared.dimension
        return [dot(w, self.shared, b * base) for b in self.blocks]

    def weight_indices(self):
        """The weight index blocks[a] * base + i of every action a and
        pair (i, v) of `shared`: what the actions read and an update on
        this state writes. An index repeats where a block does."""
        base = self.shared.dimension
        return [b * base + i for b in self.blocks for i, _ in self.shared.pairs]


def from_pairs(pairs, dimension):
    """Build SparseFeatures from unsorted (index, value) pairs, summing duplicates."""
    acc = {}
    for i, v in pairs:
        acc[i] = acc.get(i, 0.0) + float(v)
    return SparseFeatures(tuple(sorted(acc.items())), dimension)


def dot(weights, features, offset=0):
    """The sum of weights[offset + i] * v over the pairs (i, v), added left
    to right from 0, with `features` inside `weights`.

    Pass a memoryview of float64 weights: its items are Python floats,
    which multiply and add bit for bit as numpy float64 scalars do
    without boxing each one. The range check runs before any read, as a
    memoryview would wrap a negative index round to its end.
    """
    if not 0 <= offset <= len(weights) - features.dimension:
        raise L2SError(f"features at {offset} + [0, {features.dimension})"
                       f" outside weights {len(weights)}")
    total = 0
    for i, v in features.pairs:
        total += weights[offset + i] * v
    return total


def hash_index(key, base):
    """Stable (cross-run, cross-platform) hash of a string key into [0, base)."""
    return zlib.crc32(key.encode("utf-8")) % base


def prefix_crc(prefix):
    """The CRC32 of a key's prefix, to finish keys by `hash_suffix`."""
    return zlib.crc32(prefix.encode("utf-8"))


def hash_suffix(crc, suffix, base):
    """hash_index(prefix + suffix, base), with crc = prefix_crc(prefix):
    the CRC continues over the suffix's bytes, so a prefix shared by
    many keys is encoded and read once."""
    return zlib.crc32(suffix.encode("utf-8"), crc) % base
