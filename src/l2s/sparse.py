"""Sparse feature vectors with a fixed ambient dimension."""

import math
import zlib
from dataclasses import dataclass

from .errors import DimensionMismatch


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
                raise DimensionMismatch(
                    f"index {i} out of order or outside [0, {self.dimension})"
                )
            if not math.isfinite(v):
                raise DimensionMismatch(f"non-finite value at index {i}")
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
        """Predicted cost of every action, each summed left to right."""
        if len(weights) != self.dimension:
            raise DimensionMismatch(
                f"feature dimension {self.dimension} != weights {len(weights)}")
        base = self.shared.dimension
        return [dot(weights, self.shared, b * base) for b in self.blocks]


def from_pairs(pairs, dimension):
    """Build SparseFeatures from unsorted (index, value) pairs, summing duplicates."""
    acc = {}
    for i, v in pairs:
        acc[i] = acc.get(i, 0.0) + float(v)
    return SparseFeatures(tuple(sorted(acc.items())), dimension)


def dot(weights, features, offset=0):
    """sum(weights[offset + i] * v), left to right, inside `weights`."""
    if not 0 <= offset <= len(weights) - features.dimension:
        raise DimensionMismatch(f"features at {offset} + [0, {features.dimension})"
                                f" outside weights {len(weights)}")
    return sum(weights[offset + i] * v for i, v in features.pairs)


def hash_index(key, base):
    """Stable (cross-run, cross-platform) hash of a string key into [0, base)."""
    return zlib.crc32(key.encode("utf-8")) % base
