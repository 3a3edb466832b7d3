"""The query-tiled attention kernel against a full-matrix and a per-tile
reference, and the pair-swap rotation against the strided formula."""

import tracemalloc

import numpy as np
import pytest

from lag import _kernels


def full_matrix_attention(q, k, v, n_prefix):
    """Reference: scores every query against every key and masks the future
    with one [t_new, n_prefix + t_new] mask."""
    n_heads, t_new, d = q.shape
    n_kv = k.shape[0]
    group = n_heads // n_kv
    scale = np.float32(1.0) / np.float32(np.sqrt(d))

    qg = q.reshape(n_kv, group, t_new, d)
    scores = np.matmul(qg, k[:, None, :, :].transpose(0, 1, 3, 2)) * scale
    t_idx = np.arange(t_new)[:, None]
    j_idx = np.arange(k.shape[1])[None, :]
    scores[:, :, j_idx > n_prefix + t_idx] = -np.float32(np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    out = np.matmul(scores, v[:, None, :, :])
    return out.reshape(n_heads, t_new, d)


def per_tile_attention(q, k, v, n_prefix):
    """Reference: the tiled kernel as it was with a new score array for each
    tile; the kernel must equal it bit for bit."""
    n_heads, t_new, d = q.shape
    n_kv = k.shape[0]
    group = n_heads // n_kv
    scale = np.float32(1.0) / np.float32(np.sqrt(d))
    tile = _kernels.TILE
    future = np.triu(np.full((tile, tile), -np.inf, dtype=np.float32), k=1)

    qg = q.reshape(n_kv, group, t_new, d)
    out = np.empty((n_kv, group, t_new, d), dtype=np.float32)
    for lo in range(0, t_new, tile):
        hi = min(lo + tile, t_new)
        n_keys = n_prefix + hi
        scores = np.matmul(qg[:, :, lo:hi], k[:, None, :n_keys].transpose(0, 1, 3, 2))
        scores *= scale
        if hi - lo > 1:
            scores[..., n_prefix + lo:] += future[: hi - lo, : hi - lo]
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        np.matmul(scores, v[:, None, :n_keys], out=out[:, :, lo:hi])
    return out.reshape(n_heads, t_new, d)


def _qkv(rng, n_prefix, t_new, heads=4, kv_heads=2, d=16):
    q = rng.standard_normal((heads, t_new, d)).astype(np.float32)
    k = rng.standard_normal((kv_heads, n_prefix + t_new, d)).astype(np.float32)
    v = rng.standard_normal((kv_heads, n_prefix + t_new, d)).astype(np.float32)
    return q, k, v


@pytest.mark.parametrize("n_prefix", [0, 7, 194])
@pytest.mark.parametrize("t_new", [1, 127, 128, 129, 300])
def test_tiled_attention_matches_full_matrix(rng, n_prefix, t_new):
    assert _kernels.TILE == 128  # the t_new cases straddle tile edges
    q, k, v = _qkv(rng, n_prefix, t_new)
    got = _kernels.causal_attention(q, k, v, n_prefix)
    want = full_matrix_attention(q, k, v, n_prefix)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-6


@pytest.mark.parametrize("n_prefix", [0, 1000])
@pytest.mark.parametrize("t_new", [1, 127, 129, 392])
def test_attention_matches_per_tile_kernel_bit_for_bit(rng, n_prefix, t_new):
    q, k, v = _qkv(rng, n_prefix, t_new)
    got = _kernels.causal_attention(q, k, v, n_prefix)
    want = per_tile_attention(q, k, v, n_prefix)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_attention_holds_one_score_tile(rng):
    # every tile writes its scores into one buffer; a new array per tile
    # would hold two tiles while the next one is computed
    heads, n_prefix, t_new, d = 4, 1000, 392, 16
    q, k, v = _qkv(rng, n_prefix, t_new, heads=heads, d=d)
    tile_bytes = heads * _kernels.TILE * (n_prefix + t_new) * 4
    out_bytes = heads * t_new * d * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _kernels.causal_attention(q, k, v, n_prefix)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    ratio = peak / (tile_bytes + out_bytes)
    assert ratio <= 1.25, f"attention peaked at {ratio:.2f} x (one tile + out)"


def test_attention_masks_future(rng):
    # key j must not influence the queries before it, whether they sit in
    # j's own tile or in an earlier one
    for n_prefix, t_new, j in [(0, 4, 3), (0, 300, 200), (7, 300, 7 + 129)]:
        q, k, v = _qkv(rng, n_prefix, t_new, heads=2, kv_heads=2, d=8)
        out = _kernels.causal_attention(q, k, v, n_prefix)
        k2, v2 = k.copy(), v.copy()
        k2[:, j] += 1.0
        v2[:, j] -= 1.0
        out2 = _kernels.causal_attention(q, k2, v2, n_prefix)
        t = j - n_prefix  # the first query that sees key j
        assert np.array_equal(out[:, :t], out2[:, :t])
        assert not np.array_equal(out[:, t], out2[:, t])


def test_single_query_row_softmax_normalizes(rng):
    q = np.zeros((1, 1, 4), dtype=np.float32)
    k = rng.standard_normal((1, 5, 4)).astype(np.float32)
    v = rng.standard_normal((1, 5, 4)).astype(np.float32)
    out = _kernels.causal_attention(q, k, v, 4)
    # zero query attends uniformly over all five visible positions
    assert np.allclose(out[0, 0], v[0].mean(axis=0), atol=1e-6)


def strided_rotate(x, cos, sin):
    """Reference: the strided even/odd rotation with half-width cos/sin
    [seq, head_dim // 2], one subvector (e, o) -> (e*c - o*s, e*s + o*c)."""
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _rows(rng, seq, head_dim):
    """Half-width float32 cos/sin of random angles, and the same as the
    kernel's full-width rows: cos per pair, sin signed (-s, +s) per pair."""
    angle = rng.uniform(-40.0, 40.0, (seq, head_dim // 2))
    cos, sin = np.cos(angle).astype(np.float32), np.sin(angle).astype(np.float32)
    cos_rows = np.repeat(cos, 2, axis=1)
    sin_rows = np.stack([-sin, sin], axis=-1).reshape(seq, head_dim)
    return (cos, sin), (cos_rows, sin_rows)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


@pytest.mark.parametrize("head_dim", [6, 16])
@pytest.mark.parametrize("seq", [1, 129])
def test_rotate_pairs_matches_strided_formula_bit_for_bit(rng, head_dim, seq):
    x = (rng.standard_normal((3, seq, head_dim)) * 10).astype(np.float32)
    half, rows = _rows(rng, seq, head_dim)
    want = strided_rotate(x, *half)
    assert np.array_equal(_bits(_kernels.rotate_pairs(x, *rows)), _bits(want))
    out = np.empty_like(x)
    assert _kernels.rotate_pairs(x, *rows, out=out) is out
    assert np.array_equal(_bits(out), _bits(want))
    # in place: out is x
    assert _kernels.rotate_pairs(x, *rows, out=x) is x
    assert np.array_equal(_bits(x), _bits(want))


def test_rotate_pairs_reads_an_unaligned_read_only_view(rng):
    # the store serves keys as read-only views over its bytes, at any
    # 4-byte offset
    heads, seq, head_dim = 2, 129, 16
    x = rng.standard_normal((heads, seq, head_dim)).astype(np.float32)
    raw = bytes(4) + x.tobytes()
    view = np.frombuffer(raw, dtype=np.float32, offset=4).reshape(x.shape)
    assert not view.flags.writeable
    half, rows = _rows(rng, seq, head_dim)
    got = _kernels.rotate_pairs(view, *rows)
    assert np.array_equal(_bits(got), _bits(strided_rotate(x, *half)))
    assert np.array_equal(view, x)
