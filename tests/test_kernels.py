"""The query-tiled attention kernel against a full-matrix and a per-tile
reference, its split over KV heads against the serial path, and the
pair-swap rotation against the strided formula."""

import os
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lag import _kernels
from lag.model import greedy_decode
from tests.oracles import per_tile_attention


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


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _count_groups(monkeypatch):
    """Patches the kernel's group runner to record the KV heads of each
    group it runs; returns that list."""
    groups = []
    real = _kernels._attend

    def counting(qg, *args):
        groups.append(qg.shape[0])
        return real(qg, *args)

    monkeypatch.setattr(_kernels, "_attend", counting)
    return groups


def _split_cases(seed=7, each=12):
    """Random shapes, ``each`` with their work under SPLIT_WORK and ``each``
    at or over it: (kv_heads, query heads per KV head, head_dim, t_new,
    n_prefix, usable CPUs)."""
    rng = np.random.default_rng(seed)
    under, over = [], []
    while len(under) < each or len(over) < each:
        kv, group = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        t_new = int(rng.integers(1, 301))
        n_prefix = int(rng.integers(0, 1501))
        case = (kv, group, int(rng.choice([8, 16, 32])), t_new, n_prefix,
                int(rng.integers(2, 5)))
        side = over if kv * group * t_new * (n_prefix + t_new) >= _kernels.SPLIT_WORK else under
        if len(side) < each:
            side.append(case)
    return under + over


@pytest.mark.parametrize("kv, group, d, t_new, n_prefix, cpus", _split_cases())
def test_split_attention_matches_the_serial_path_bit_for_bit(
    rng, monkeypatch, kv, group, d, t_new, n_prefix, cpus
):
    _usable_cpus(monkeypatch, cpus)
    groups = _count_groups(monkeypatch)
    q, k, v = _qkv(rng, n_prefix, t_new, heads=kv * group, kv_heads=kv, d=d)
    got = _kernels.causal_attention(q, k, v, n_prefix)
    want = per_tile_attention(q, k, v, n_prefix)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
    split = kv * group * t_new * (n_prefix + t_new) >= _kernels.SPLIT_WORK
    assert len(groups) == (min(kv, cpus) if split else 1)
    assert sum(groups) == kv


def test_one_usable_cpu_starts_no_worker(rng, monkeypatch):
    _usable_cpus(monkeypatch, 1)
    monkeypatch.setattr(_kernels, "_pool", None)
    q, k, v = _qkv(rng, 1000, 392)  # 2.2M score elements, well over SPLIT_WORK
    threads = set(threading.enumerate())
    got = _kernels.causal_attention(q, k, v, 1000)
    assert _kernels._pool is None
    assert set(threading.enumerate()) == threads
    assert np.array_equal(got.view(np.uint32), per_tile_attention(q, k, v, 1000).view(np.uint32))


def test_a_workers_exception_reaches_the_caller_unchanged(rng, monkeypatch):
    _usable_cpus(monkeypatch, 2)
    caller = threading.current_thread()
    err = RuntimeError("a worker's group failed")
    real = _kernels._attend

    def failing_in_a_worker(*args):
        if threading.current_thread() is not caller:
            raise err
        return real(*args)

    monkeypatch.setattr(_kernels, "_attend", failing_in_a_worker)
    q, k, v = _qkv(rng, 1000, 392)
    with pytest.raises(RuntimeError) as raised:
        _kernels.causal_attention(q, k, v, 1000)
    assert raised.value is err
    monkeypatch.setattr(_kernels, "_attend", real)
    got = _kernels.causal_attention(q, k, v, 1000)
    assert np.array_equal(got.view(np.uint32), per_tile_attention(q, k, v, 1000).view(np.uint32))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_starts_workers_of_its_own(rng, monkeypatch):
    # the child inherits the parent's pool but none of its threads; a split
    # call that queued a group for them would wait forever
    _usable_cpus(monkeypatch, 2)
    q, k, v = _qkv(rng, 1000, 392)
    want = _kernels.causal_attention(q, k, v, 1000)  # the parent's workers run
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, and never return into pytest
        try:
            signal.alarm(20)  # a hung call kills the child
            got = _kernels.causal_attention(q, k, v, 1000)
            os.write(write, b"equal" if np.array_equal(got, want) else b"differs")
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        reply = fh.read()
    os.waitpid(pid, 0)
    assert reply == b"equal"


def test_threads_sharing_a_model_decode_as_it_does_alone(monkeypatch, small_model):
    # Model promises that one instance can be shared across threads; three
    # decoding at once, more than the CPUs the kernel is told of, also share
    # its workers, with the interpreter switching threads every 10 us
    prompts = [np.random.default_rng(seed).integers(0, 256, 300).tolist() for seed in (1, 2, 3)]
    _usable_cpus(monkeypatch, 1)
    want = [greedy_decode(small_model, small_model.prefix_cache(None), p, 24) for p in prompts]
    _usable_cpus(monkeypatch, 2)
    groups = _count_groups(monkeypatch)
    start = threading.Barrier(len(prompts))
    got, errors = {}, []

    def decode(i):
        try:
            start.wait()
            for repeat in range(3):
                cache = small_model.prefix_cache(None)
                got[i, repeat] = greedy_decode(small_model, cache, prompts[i], 24)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=decode, args=(i,)) for i in range(len(prompts))]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == {(i, r): want[i] for i in range(len(prompts)) for r in range(3)}
    # each of the 9 prefills (300 x 300 x 4 heads) split into 2 groups of one
    # KV head in every layer but the last, which attends with the prompt's
    # last row only; that and the decode passes are too small to split
    assert groups.count(1) == 2 * 9 * (small_model.config.num_layers - 1)


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
