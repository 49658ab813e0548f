"""Sparse feature vectors with a fixed ambient dimension.

Every score and every gradient dot product in l2s is `dot`: one call per
state scores all its blocks, each an explicit left-to-right loop from 0
over Python floats read through a memoryview. Builtin `sum()` is
deliberately not used: from Python 3.12 it sums floats with
compensation, so `sum([1e16, 1.0, -1e16])` is 1.0 there and 0.0 on
3.11, and model files would depend on the interpreter. Numpy reductions
are not used either: they sum pairwise, in another order, and a gather
costs more than it saves on states scored only once. Whether a state's
blocks fit its dimension is worked out once, when its ActionFeatures is
built, so `dot` checks no range.
"""

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import L2SError

#: entries of each task module's per-token key cache: a bound on its
#: memory, not a setting
TOKEN_CACHE_SIZE = 1 << 14
#: entries of each task module's cache of whole ActionFeatures, keyed by
#: the context a state's features read: a bound on its memory, not a
#: setting
FEATURE_CACHE_SIZE = 1 << 14


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ActionFeatures:
    """One state's features in the label-dependent block layout: action a
    reads weight blocks[a] * base + i for each pair (i, v) of `shared`,
    base = shared.dimension. Block ids may repeat. `fits` tells, from
    construction on, whether every block lies inside `dimension`.
    """

    shared: SparseFeatures
    blocks: tuple
    dimension: int
    fits: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "fits", self._outside() is None)

    def _outside(self):
        """The offset of the first block outside `dimension`, or None."""
        base = self.shared.dimension
        for b in self.blocks:
            if not 0 <= b * base <= self.dimension - base:
                return b * base
        return None

    def __len__(self):
        return len(self.blocks)

    def scores(self, weights):
        """Predicted cost of every action as a list of Python floats, each
        summed left to right by `dot`."""
        if len(weights) != self.dimension:
            raise L2SError(
                f"feature dimension {self.dimension} != weights {len(weights)}")
        if not self.fits:
            raise L2SError(f"features at {self._outside()} + "
                           f"[0, {self.shared.dimension}) outside weights "
                           f"{self.dimension}")
        return dot(memoryview(np.asarray(weights, dtype=np.float64)),
                   self.shared, self.blocks)

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


def dot(weights, features, blocks):
    """For each block b, the sum of weights[b * base + i] * v over the
    pairs (i, v), base = features.dimension, added left to right from 0:
    one list of sums, in block order.

    Pass a memoryview of float64 weights: its items are Python floats,
    which multiply and add bit for bit as numpy float64 scalars do
    without boxing each one. No range is checked here, and a memoryview
    wraps a negative index round to its end: pass only the blocks of an
    ActionFeatures whose `fits` holds.
    """
    base, pairs = features.dimension, features.pairs
    sums = []
    for b in blocks:
        offset, total = b * base, 0
        for i, v in pairs:
            total += weights[offset + i] * v
        sums.append(total)
    return sums


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
