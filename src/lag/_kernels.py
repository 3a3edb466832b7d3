"""Hot numeric kernels in numpy: pairwise rotary rotation and query-tiled
causal grouped-KV attention.

Attention walks the new-token queries in tiles of ``TILE`` rows, after
FlashAttention's tiling (Dao et al., 2022, arXiv 2205.14135). A tile scores
only the keys its queries may see, ``[0, n_prefix + tile_end)``, and masks
only its diagonal block, so each row gets an exact softmax while the score
buffer stays O(TILE x keys) instead of O(t_new x keys). Everything is float32.
"""

from __future__ import annotations

import numpy as np

TILE = 128

# added to a tile's diagonal block: query row r must not see key c > r
_FUTURE = np.triu(np.full((TILE, TILE), -np.inf, dtype=np.float32), k=1)


def rotate_pairs(
    x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Rotate interleaved 2D subvectors (x[2i], x[2i+1]) of each head vector.

    x and out: [heads, seq, head_dim], not overlapping; cos/sin: [seq, head_dim // 2].
    """
    even = x[..., 0::2]
    odd = x[..., 1::2]
    out = np.empty_like(x) if out is None else out
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, n_prefix: int
) -> np.ndarray:
    """Causal attention of new-token queries over [prefix + new] keys/values.

    q: [n_heads, t_new, d]; k, v: [n_kv_heads, n_prefix + t_new, d].
    Query t may attend to key positions 0 .. n_prefix + t. Query heads are
    mapped onto KV heads in contiguous groups.
    """
    n_heads, t_new, d = q.shape
    n_kv = k.shape[0]
    group = n_heads // n_kv
    scale = np.float32(1.0) / np.float32(np.sqrt(d))

    qg = q.reshape(n_kv, group, t_new, d)
    out = np.empty((n_kv, group, t_new, d), dtype=np.float32)
    for lo in range(0, t_new, TILE):
        hi = min(lo + TILE, t_new)
        n_keys = n_prefix + hi
        scores = np.matmul(qg[:, :, lo:hi], k[:, None, :n_keys].transpose(0, 1, 3, 2))
        scores *= scale
        if hi - lo > 1:
            scores[..., n_prefix + lo:] += _FUTURE[: hi - lo, : hi - lo]
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        np.matmul(scores, v[:, None, :n_keys], out=out[:, :, lo:hi])
    return out.reshape(n_heads, t_new, d)


def backend_name() -> str:
    return "numpy"
