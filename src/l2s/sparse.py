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


def from_pairs(pairs, dimension):
    """Build SparseFeatures from unsorted (index, value) pairs, summing duplicates."""
    acc = {}
    for i, v in pairs:
        acc[i] = acc.get(i, 0.0) + float(v)
    return SparseFeatures(tuple(sorted(acc.items())), dimension)


def block_features(pairs, blocks, base, dimension):
    """The label-dependent block layout: one SparseFeatures per block id
    in `blocks`, each a copy of `pairs` (sorted indices in [0, base))
    shifted by block * base.
    """
    return [SparseFeatures(tuple((b * base + i, v) for i, v in pairs), dimension)
            for b in blocks]


def dot(weights, features):
    """Dense-sparse dot product; validates the feature dimension."""
    if features.dimension != len(weights):
        raise DimensionMismatch(
            f"feature dimension {features.dimension} != weights {len(weights)}"
        )
    return sum(weights[i] * v for i, v in features.pairs)


def hash_index(key, base):
    """Stable (cross-run, cross-platform) hash of a string key into [0, base)."""
    return zlib.crc32(key.encode("utf-8")) % base
