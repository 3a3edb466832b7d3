"""The query-tiled attention kernel against a full-matrix reference."""

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
