"""Rotary position embedding: reposition stored keys.

A key vector is split into interleaved 2D subvectors (x[2i], x[2i+1]); each
subvector is rotated by an angle that depends on the token position and the
subvector index. Stripping multiplies by the inverse rotation. Rotations
compose by adding angles and the angle is linear in the position, so
stripping position p and applying p' is one rotation by the angle of p' - p,
which moves a cached key to a new slot in a different context. Values never
carry the rotation and are left untouched. The cos/sin of each angle come
from one table per head dim at ``config.ROPE_BASE``, computed once.
"""

from __future__ import annotations

import numpy as np

from . import config
from ._kernels import rotate_pairs
from .errors import ConfigurationError, PositionError
from .segment import KvSegment

# per head dim: cos and signed sin rows of offsets 0..n-1, grown on demand;
# a row never changes once built, so every caller may share the table
_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_NO_ROWS = np.empty((0, 0), dtype=np.float32)
# rows of |positions| beyond this are computed per call: a position read from
# a store file (up to 2^32) must not size a table
MAX_TABLE_ROWS = 1 << 16


def _rows(head_dim: int, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and signed sin of non-negative integer offsets as float32
    [len(offsets), head_dim]: pair i holds (cos, cos) and (-sin, +sin) of
    offset * base^(-2i/head_dim), each angle computed in float64 and rounded
    once. Built one column at a time, so the float64 temporaries are one
    column long."""
    if head_dim <= 0 or head_dim % 2 != 0:
        raise ConfigurationError(f"head_dim must be a positive even number, got {head_dim}")
    i = np.arange(head_dim // 2, dtype=np.float64)
    freq = config.ROPE_BASE ** (-2.0 * i / head_dim)
    offsets = offsets.astype(np.float64)
    cos = np.empty((len(offsets), head_dim), dtype=np.float32)
    sin = np.empty((len(offsets), head_dim), dtype=np.float32)
    for pair, f in enumerate(freq):
        angle = offsets * f
        cos[:, 2 * pair] = cos[:, 2 * pair + 1] = np.cos(angle)
        sin[:, 2 * pair + 1] = np.sin(angle)
        np.negative(sin[:, 2 * pair + 1], out=sin[:, 2 * pair])
    return cos, sin


def cos_sin_table(head_dim: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin rows for an integer position vector, as float32
    [len(positions), head_dim] arrays ready for the rotation kernel: cos
    repeated per pair, sin signed (-sin, +sin) per pair.

    Rows are gathered from one table per head dim, built once and
    doubled when a |position| is beyond it, up to ``MAX_TABLE_ROWS``. A
    negative position reads the row of its magnitude with the sign of sin
    flipped, since cos is even and sin odd. Each row equals, bit for bit,
    float32 of cos/sin of the float64 angle position * base^(-2i/head_dim)."""
    positions = np.asarray(positions)
    if positions.dtype.kind not in "iu":
        raise PositionError(f"positions must be integers, not {positions.dtype}")
    offsets = np.abs(positions)
    needed = int(offsets.max(initial=0)) + 1
    if needed > MAX_TABLE_ROWS:
        cos, sin = _rows(head_dim, offsets)
    else:
        cos, sin = _TABLES.get(head_dim, (_NO_ROWS, _NO_ROWS))
        if needed > len(cos):
            rows = min(max(needed, 2 * len(cos)), MAX_TABLE_ROWS)
            cos, sin = _TABLES[head_dim] = _rows(head_dim, np.arange(rows))
        cos, sin = cos.take(offsets, axis=0), sin.take(offsets, axis=0)
    if positions.min(initial=0) < 0:  # the model's positions never are
        np.negative(sin, out=sin, where=(positions < 0)[:, None])
    return cos, sin


def reposition_segment(
    segment: KvSegment, new_positions, _=None, *, out: np.ndarray | None = None
) -> KvSegment:
    """Move a stored segment to new positions: one rotation of each key by
    the angle of (new - original) position, equal to stripping the original
    rotation and applying the new one, at the head dim of its keys. Values
    and fingerprint are unchanged. A third argument is ignored: lagbench's
    prefix check still passes ``Model.rope_params``.

    The new positions must increase; the original ones need not, since each
    token's rotation depends only on its own original and new position, so
    a concatenation of stored spans moves in one call. The moved keys are
    written to ``out``, a new array by default; an array of the keys' shape
    may be given instead, ``segment.keys`` itself included, which moves the
    keys in place (they must then be writable)."""
    new_positions = np.asarray(new_positions, dtype=np.int64)
    if new_positions.shape[0] != segment.span_len:
        raise PositionError(
            f"{new_positions.shape[0]} new positions for span {segment.span_len}"
        )
    if new_positions.shape[0] > 1 and not (np.diff(new_positions) > 0).all():
        raise PositionError("new positions must be strictly increasing")
    cos, sin = cos_sin_table(segment.head_dim, new_positions - segment.positions)
    keys = np.empty(segment.keys.shape, dtype=np.float32) if out is None else out
    # per layer: all layers at once spill the L2 cache, 1.13 vs 0.90 ms at
    # 3000 tokens (hop_reuse's tail); tied at 964, the mean span
    for layer_keys, layer_out in zip(segment.keys, keys):
        rotate_pairs(layer_keys, cos, sin, out=layer_out)
    return KvSegment(
        keys=keys,
        values=segment.values,
        positions=new_positions,
        model_fingerprint=segment.model_fingerprint,
    )
