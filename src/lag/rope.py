"""Rotary position embedding: reposition stored keys.

A key vector is split into interleaved 2D subvectors (x[2i], x[2i+1]); each
subvector is rotated by an angle that depends on the token position and the
subvector index. Stripping multiplies by the inverse rotation. Rotations
compose by adding angles and the angle is linear in the position, so
stripping position p and applying p' is one rotation by the angle of p' - p,
which moves a cached key to a new slot in a different context. Values never
carry the rotation and are left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import rotate_pairs
from .errors import ConfigurationError, PositionError
from .segment import KvSegment


@dataclass(frozen=True)
class RopeParams:
    head_dim: int
    base: float = 10000.0

    def __post_init__(self) -> None:
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ConfigurationError("head_dim must be a positive even number")
        if self.base <= 1.0:
            raise ConfigurationError("base must be > 1")


def cos_sin_table(params: RopeParams, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of the angle grid for a position vector, as float32
    [len(positions), head_dim // 2] tables ready for the rotation kernel."""
    i = np.arange(params.head_dim // 2, dtype=np.float64)
    freq = params.base ** (-2.0 * i / params.head_dim)
    grid = np.asarray(positions, dtype=np.float64)[:, None] * freq[None, :]
    return np.cos(grid).astype(np.float32), np.sin(grid).astype(np.float32)


def reposition_segment(
    segment: KvSegment, new_positions, params: RopeParams
) -> KvSegment:
    """Move a stored segment to new positions: one rotation of each key by
    the angle of (new - original) position, equal to stripping the original
    rotation and applying the new one. Values and fingerprint are unchanged.

    The new positions must increase; the original ones need not, since each
    token's rotation depends only on its own original and new position, so
    a concatenation of stored spans moves in one call."""
    new_positions = np.asarray(new_positions, dtype=np.int64)
    if new_positions.shape[0] != segment.span_len:
        raise PositionError(
            f"{new_positions.shape[0]} new positions for span {segment.span_len}"
        )
    if new_positions.shape[0] > 1 and not (np.diff(new_positions) > 0).all():
        raise PositionError("new positions must be strictly increasing")
    cos, sin = cos_sin_table(params, new_positions - segment.positions)
    keys = np.empty(segment.keys.shape, dtype=np.float32)
    # per layer: all layers at once spill the L2 cache, 3x slower at 24 logs
    for layer_keys, out in zip(segment.keys, keys):
        rotate_pairs(layer_keys, cos, sin, out=out)
    return KvSegment(
        keys=keys,
        values=segment.values,
        positions=new_positions,
        model_fingerprint=segment.model_fingerprint,
    )
