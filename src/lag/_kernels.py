"""Hot numeric kernels in numpy: pairwise rotary rotation and causal
grouped-KV attention, query-tiled for a prefill and one matmul pair for a
decode step.

Rotation works on whole rows in three contiguous steps instead of strided
even/odd slices: each (e, o) pair is swapped to (o, e) by rotating its 64
bits by 32, multiplied by the signed sin row (-s, +s), and added to x times
the cos row (c, c). This equals the strided e*c - o*s, o*c + e*s bit for
bit: adding -(o*s) is subtracting o*s, addition commutes, and separate
ufuncs round each product on its own (no fused multiply-add). A complex64
multiply would not be bit-identical.

Attention walks the new-token queries in tiles of ``TILE`` rows, after
FlashAttention's tiling (Dao et al., 2022, arXiv 2205.14135). A tile scores
only the keys its queries may see, ``[0, n_prefix + tile_end)``, and masks
only its diagonal block, so each row gets an exact softmax while the score
buffer stays O(TILE x keys) instead of O(t_new x keys). Everything is float32.

A call allocates that buffer once, sized for its largest tile, and every tile
writes its scores into a view of it. A new array per tile is a fresh memory
mapping of 2.3 to 2.8 MB at the kv_agent prefill shape (392 queries over
~1390 keys): about 7200 minor page faults per kv_agent op, against 0 with
one buffer. The output is bit-identical either way.

A decode step (one query) takes its own branch of the same kernel: one
``np.matmul`` scores the query against every key into a new
``[kv_heads, group, 1, keys]`` array, which is scaled, softmaxed in place
and multiplied by the values. It has no flat buffer, no tile loop and no
mask, and its BLAS calls are those of the one tile the loop would run, so
its output is bit-identical to the tiled path's. Both paths call
``np.maximum.reduce`` and ``np.add.reduce``, which ``.max()`` and
``.sum()`` reach through Python wrappers. At the kv_agent decode shape
(one query over 1390 keys) a model decode step makes 44 Python and 84 C
calls where it made 54 and 126 (``BENCH_kernels.json``).
"""

from __future__ import annotations

import numpy as np

TILE = 128

# added to a tile's diagonal block: query row r must not see key c > r
_FUTURE = np.triu(np.full((TILE, TILE), -np.inf, dtype=np.float32), k=1)

_HALF = np.uint64(32)


def rotate_pairs(
    x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Rotate interleaved 2D subvectors (e, o) = (x[2i], x[2i+1]) of each
    head vector to (e*c - o*s, o*c + e*s).

    x and out: float32 [heads, seq, head_dim] with a contiguous last axis;
    out may be x itself. cos/sin: [seq, head_dim] rows as ``cos_sin_table``
    gives them, cos repeated per pair and sin signed (-s, +s) per pair.
    """
    u = x.view(np.uint64)
    swapped = u << _HALF  # (o, e): a 32-bit rotate, the same on either byte order
    swapped |= u >> _HALF
    swapped = swapped.view(np.float32)
    swapped *= sin
    out = np.multiply(x, cos, out=out)
    out += swapped
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
    if t_new == 1:  # a decode step: one row of scores per head, nothing to mask
        scores = np.matmul(qg, k[:, None].transpose(0, 1, 3, 2))
        scores *= scale
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        return np.matmul(scores, v[:, None]).reshape(n_heads, 1, d)
    out = np.empty((n_kv, group, t_new, d), dtype=np.float32)
    # one score buffer for every tile: at most TILE rows over at most all keys
    buf = np.empty(n_heads * min(TILE, t_new) * (n_prefix + t_new), dtype=np.float32)
    for lo in range(0, t_new, TILE):
        hi = min(lo + TILE, t_new)
        n_keys = n_prefix + hi
        scores = buf[: n_heads * (hi - lo) * n_keys].reshape(n_kv, group, hi - lo, n_keys)
        np.matmul(qg[:, :, lo:hi], k[:, None, :n_keys].transpose(0, 1, 3, 2), out=scores)
        scores *= scale
        if hi - lo > 1:
            scores[..., n_prefix + lo:] += _FUTURE[: hi - lo, : hi - lo]
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        np.matmul(scores, v[:, None, :n_keys], out=out[:, :, lo:hi])
    return out.reshape(n_heads, t_new, d)


def backend_name() -> str:
    return "numpy"
