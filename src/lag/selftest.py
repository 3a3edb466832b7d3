"""Built-in verification suites behind `lag selftest`.

Each suite re-checks one load-bearing contract against an independent
oracle: rotary round trips, repositioning vs a scalar longhand, KV-prefix
injection vs a full forward pass, top-k retrieval vs brute force, and the
entry wire format round trip with CRC detection. The tests call the same
oracle functions, each with its own seeds, sizes and tolerances.
"""

from __future__ import annotations

import tempfile
import time

import numpy as np

from .codec import LogEntry, SelectionStrategy, deserialize, serialize
from .config import ModelConfig
from .errors import ChecksumError, FormatError
from .model import build_model, encode, forward_with_prefix
from .rope import RopeParams, reposition_segment
from .segment import KvSegment
from .store import LogStore, normalize


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
    got, _ = forward_with_prefix(model, prefix, t2, len(t1))
    full, _ = forward_with_prefix(model, None, list(t1) + list(t2), 0)
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


def _suite_rope_round_trip() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    xs = rng.standard_normal((10_000, 2)).astype(np.float32)
    thetas = rng.uniform(-50.0, 50.0, 10_000)
    t0 = time.perf_counter()
    worst = rope_round_trip_error(xs, thetas)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    return ok, f"max abs err {worst:.2e} over 10000 pairs in {elapsed:.2f}s"


def _suite_repositioning() -> tuple[bool, str]:
    cfg = ModelConfig(num_layers=2, num_heads=4, num_kv_heads=2, head_dim=8,
                      vocab_size=64, weight_seed=3, max_positions=256)
    model = build_model(cfg)
    rng = np.random.default_rng(5)
    seg, _ = encode(model, rng.integers(0, 64, 12).tolist(), 4)
    params = model.rope_params
    new_pos = np.arange(40, 52)
    moved = reposition_segment(seg, new_pos, params)
    worst = reposition_error(seg, moved, params)
    values_ok = np.array_equal(moved.values, seg.values)
    two_step = reposition_segment(
        reposition_segment(seg, np.arange(100, 112), params), new_pos, params
    )
    comp = float(np.abs(two_step.keys - moved.keys).max())
    ok = worst <= 1e-6 and values_ok and comp <= 1e-5
    return ok, f"oracle err {worst:.2e}, composition err {comp:.2e}, values intact {values_ok}"


def _suite_kv_injection() -> tuple[bool, str]:
    cfg = ModelConfig(num_layers=3, num_heads=4, num_kv_heads=2, head_dim=8,
                      vocab_size=128, weight_seed=1, max_positions=128)
    worst = random_injection_error(build_model(cfg), np.random.default_rng(7), 50, 128)
    return worst <= 1e-4, f"max abs logit diff {worst:.2e} over 50 random pairs"


def _suite_retrieval() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    dim, n, queries, k = 16, 300, 30, 5
    embeddings = [normalize(rng.standard_normal(dim).astype(np.float32)) for _ in range(n)]
    for i in range(10, n, 10):
        # duplicated embeddings force ties that must resolve by insertion order
        embeddings[i] = embeddings[0]
    with tempfile.TemporaryDirectory() as tmp:
        store = LogStore(tmp, mode="w")
        for i, vec in enumerate(embeddings):
            strategy = SelectionStrategy("last_round_text")
            store.put(LogEntry(f"t{i}", f"k{i}", vec, strategy, text_payload=f"p{i}"))
        agree = all(
            [r.entry_id for r in store.retrieve_topk(q, k)] == brute_force_topk(embeddings, q, k)
            for q in rng.standard_normal((queries, dim)).astype(np.float32)
        )
        store.close()
    return agree, f"{queries} queries over {n} entries, ties included"


def _suite_serialization() -> tuple[bool, str]:
    rng = np.random.default_rng(17)
    seg = KvSegment(
        keys=rng.standard_normal((3, 2, 5, 8)).astype(np.float32),
        values=rng.standard_normal((3, 2, 5, 8)).astype(np.float32),
        positions=np.arange(10, 15, dtype=np.int64),
        model_fingerprint="ab" * 32,
    )
    entry = LogEntry(
        task_text="t",
        retrieval_key_text="k",
        embedding=normalize(rng.standard_normal(8).astype(np.float32)),
        strategy=SelectionStrategy("last_round"),
        kv=seg,
    )
    blob = serialize(entry)
    round_trip = entry.same_content(deserialize(blob))
    size_ok = seg.payload_nbytes == 5 * 3 * 2 * 2 * 8 * 4

    crc_ok = True
    for pos in range(0, len(blob), max(1, len(blob) // 50)):
        damaged = bytearray(blob)
        damaged[pos] ^= 0xFF
        try:
            deserialize(bytes(damaged))
            crc_ok = False
        except (ChecksumError, FormatError):
            pass
    return round_trip and size_ok and crc_ok, (
        f"round trip {round_trip}, size law {size_ok}, corruption detected {crc_ok}"
    )


SUITES = [
    ("rope-round-trip", _suite_rope_round_trip),
    ("repositioning", _suite_repositioning),
    ("kv-injection-equivalence", _suite_kv_injection),
    ("retrieval-exactness", _suite_retrieval),
    ("serialization", _suite_serialization),
]


def run_selftest(out=print) -> bool:
    all_ok = True
    for name, suite in SUITES:
        ok, detail = suite()
        all_ok = all_ok and ok
        out(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
