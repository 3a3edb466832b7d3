"""Independent oracles for the numeric contracts the tests pin.

Rotary round trips, repositioning vs a scalar longhand, KV-prefix injection
vs a full forward pass, the forward pass vs its unfused form, and top-k
retrieval vs brute force. Each test picks its own seeds, sizes and
tolerances.
"""

from __future__ import annotations

import numpy as np

from lag._kernels import TILE, rotate_pairs
from lag.model import _rmsnorm, encode, forward_with_prefix
from lag.rope import RopeParams, cos_sin_table
from lag.segment import KvSegment


def angles(params: RopeParams, position: int | float) -> np.ndarray:
    """Rotation angles for one position: position * base^(-2i/head_dim)."""
    i = np.arange(params.head_dim // 2, dtype=np.float64)
    return position * params.base ** (-2.0 * i / params.head_dim)


def rope_apply(x, theta: float) -> np.ndarray:
    """Rotate a 2-vector by theta (the position-dependent rotation matrix)."""
    x = np.asarray(x, dtype=np.float64)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])


def rope_strip(y, theta: float) -> np.ndarray:
    """Inverse rotation: rope_strip(rope_apply(x, t), t) == x."""
    return rope_apply(y, -theta)


def rope_round_trip_error(xs, thetas) -> float:
    """Worst |strip(apply(x, theta), theta) - x| over 2-vectors and angles."""
    return max(
        float(np.abs(rope_strip(rope_apply(x, theta), theta) - x).max())
        for x, theta in zip(xs, thetas)
    )


def reposition_error(original: KvSegment, moved: KvSegment, params: RopeParams) -> float:
    """Worst key error of ``moved`` against a scalar longhand that moves each
    key 2-vector of ``original`` to ``moved.positions``: strip the rotation
    of the old position, then apply that of the new one."""
    k_old = original.keys.reshape(-1, original.span_len, params.head_dim)
    k_new = moved.keys.reshape(k_old.shape)
    worst = 0.0
    for t in range(original.span_len):
        th_old = angles(params, int(original.positions[t]))
        th_new = angles(params, int(moved.positions[t]))
        for h in range(k_old.shape[0]):
            for i in range(params.head_dim // 2):
                pair = slice(2 * i, 2 * i + 2)
                want = rope_apply(rope_strip(k_old[h, t, pair], th_old[i]), th_new[i])
                worst = max(worst, float(np.abs(want - k_new[h, t, pair]).max()))
    return worst


def injection_error(model, t1, t2) -> float:
    """Worst logit difference between t2 run after the injected KV of t1 and
    the tail of one forward pass over t1 + t2."""
    prefix, _ = encode(model, t1, 0)
    got, _ = forward_with_prefix(model, model.prefix_cache(prefix), t2, len(t1))
    full, _ = forward_with_prefix(model, model.prefix_cache(None), list(t1) + list(t2), 0)
    return float(np.abs(got - full[len(t1):]).max())


def random_injection_error(model, rng, pairs: int, vocab: int) -> float:
    """Worst ``injection_error`` over random (t1, t2) pairs of at most 64
    tokens in all, with token ids below ``vocab``."""
    worst = 0.0
    for _ in range(pairs):
        n1 = int(rng.integers(1, 32))
        n2 = int(rng.integers(1, 65 - n1))
        t1 = rng.integers(0, vocab, n1).tolist()
        t2 = rng.integers(0, vocab, n2).tolist()
        worst = max(worst, injection_error(model, t1, t2))
    return worst


def per_tile_attention(q, k, v, n_prefix):
    """The query-tiled attention kernel with a new score array for each
    tile, at every query count, one included."""
    n_heads, t_new, d = q.shape
    n_kv = k.shape[0]
    group = n_heads // n_kv
    scale = np.float32(1.0) / np.float32(np.sqrt(d))
    future = np.triu(np.full((TILE, TILE), -np.inf, dtype=np.float32), k=1)

    qg = q.reshape(n_kv, group, t_new, d)
    out = np.empty((n_kv, group, t_new, d), dtype=np.float32)
    for lo in range(0, t_new, TILE):
        hi = min(lo + TILE, t_new)
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


def _longhand_gelu(x):
    c = np.float32(np.sqrt(2.0 / np.pi))
    return np.float32(0.5) * x * (
        np.float32(1.0) + np.tanh(c * (x + np.float32(0.044715) * x * x * x))
    )


def unfused_logits(model, cache, tokens, start_position: int) -> np.ndarray:
    """Logits of ``tokens`` after ``cache``, which it extends in place, by
    the forward pass in its longhand form: q and k rotated apart, the
    query-tiled kernel for every query count and the longhand GELU."""
    cfg = model.config
    nh, nkv, d = cfg.num_heads, cfg.num_kv_heads, cfg.head_dim
    t_new = len(tokens)
    n_prefix = cache.span_len
    positions = np.arange(start_position, start_position + t_new, dtype=np.int64)
    cos, sin = cos_sin_table(model.rope_params, positions)
    x = model.embedding[np.asarray(tokens, dtype=np.int64)]
    for li, layer in enumerate(model.layers):
        xn = _rmsnorm(x)
        q = np.ascontiguousarray((xn @ layer["wq"]).reshape(t_new, nh, d).transpose(1, 0, 2))
        k = (xn @ layer["wk"]).reshape(t_new, nkv, d).transpose(1, 0, 2)
        v = (xn @ layer["wv"]).reshape(t_new, nkv, d).transpose(1, 0, 2)
        q = rotate_pairs(q, cos, sin)
        k_all, v_all = cache.stage(li, rotate_pairs(k, cos, sin), v)
        att = per_tile_attention(q, k_all, v_all, n_prefix)
        x = x + att.transpose(1, 0, 2).reshape(t_new, nh * d) @ layer["wo"]
        xf = _rmsnorm(x)
        x = x + _longhand_gelu(xf @ layer["w1"]) @ layer["w2"]
    cache.commit(positions)
    return _rmsnorm(x) @ model.head


def brute_force_topk(embeddings, query, k: int) -> list[int]:
    """Ids of the k embeddings with the highest float64 cosine to the query,
    ties by ascending id."""
    q = np.asarray(query, dtype=np.float64)
    qn = q / np.linalg.norm(q)
    sims = [float(np.asarray(e, dtype=np.float64) @ qn) for e in embeddings]
    return sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
