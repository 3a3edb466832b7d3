"""Independent oracles for the numeric contracts the tests pin.

Rotary round trips, repositioning vs a scalar longhand, KV-prefix injection
vs a full forward pass, and top-k retrieval vs brute force. Each test picks
its own seeds, sizes and tolerances.
"""

from __future__ import annotations

import numpy as np

from lag.model import encode, forward_with_prefix
from lag.rope import RopeParams
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


def brute_force_topk(embeddings, query, k: int) -> list[int]:
    """Ids of the k embeddings with the highest float64 cosine to the query,
    ties by ascending id."""
    q = np.asarray(query, dtype=np.float64)
    qn = q / np.linalg.norm(q)
    sims = [float(np.asarray(e, dtype=np.float64) @ qn) for e in embeddings]
    return sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:k]
