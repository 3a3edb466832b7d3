import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lag._kernels import TILE
from lag.config import ModelConfig
from lag.errors import (
    CapacityError,
    ConfigurationError,
    IncompatibilityError,
    InputError,
    PositionError,
)
from lag.model import (
    _NORM_EPS,
    ByteTokenizer,
    _rmsnorm,
    build_model,
    encode,
    forward_with_prefix,
    greedy_decode,
)
from lag.rope import RopeParams
from lag.segment import KvCache
from tests.conftest import SMALL_CONFIG, child_env
from tests.oracles import injection_error, unfused_logits


def test_build_is_deterministic(small_model):
    again = build_model(SMALL_CONFIG)
    assert np.array_equal(small_model.embedding, again.embedding)
    for a, b in zip(small_model.layers, again.layers):
        for name in a:
            assert np.array_equal(a[name], b[name])


def test_build_rejects_odd_head_dim():
    with pytest.raises(ConfigurationError):
        build_model(ModelConfig(head_dim=15))


def test_build_rejects_zero_layers():
    with pytest.raises(ConfigurationError):
        build_model(ModelConfig(num_layers=0))


def test_build_rejects_indivisible_heads():
    with pytest.raises(ConfigurationError):
        build_model(ModelConfig(num_heads=4, num_kv_heads=3))


def test_seed_changes_weights():
    a = build_model(ModelConfig(weight_seed=1))
    b = build_model(ModelConfig(weight_seed=2))
    assert not np.array_equal(a.embedding, b.embedding)
    assert a.fingerprint != b.fingerprint


def test_default_model_fingerprint_and_rope_are_pinned():
    # stores written by earlier versions are keyed by this fingerprint
    assert ModelConfig().fingerprint() == (
        "1e88c2ceee459a136fd4e4717281844bed658a8e806b6feb8ad456724b4eebd3")
    assert SMALL_CONFIG.fingerprint() == (
        "cddde96672cd122cb0ac65ad4b2e0e3cc399bb20da0e30b2a84d5e1f71916da7")
    assert build_model(ModelConfig()).rope_params == RopeParams(16, 10000.0)


def test_encode_single_token(small_model):
    seg, hidden = encode(small_model, [5], 0)
    assert seg.span_len == 1
    assert list(seg.positions) == [0]
    assert seg.num_layers == SMALL_CONFIG.num_layers
    assert hidden.shape == (1, SMALL_CONFIG.hidden_dim)


def test_encode_is_pure(small_model, rng):
    tokens = rng.integers(0, 256, 12).tolist()
    a, _ = encode(small_model, tokens, 3)
    b, _ = encode(small_model, tokens, 3)
    assert a.equals(b)


def test_encode_context_changes_keys(small_model, rng):
    # the same span encoded behind different context yields different KV
    t1 = rng.integers(0, 256, 9).tolist()
    t2 = rng.integers(0, 256, 7).tolist()
    full, _ = encode(small_model, t1 + t2, 0)
    tail = full.slice(len(t1), len(t1) + len(t2))
    alone, _ = encode(small_model, t2, len(t1))
    diffs = [np.abs(tail.keys[l] - alone.keys[l]).max() for l in range(tail.num_layers)]
    assert max(diffs) > 1e-3


def test_encode_rejects_bad_token(small_model):
    with pytest.raises(InputError):
        encode(small_model, [ByteTokenizer.vocab_size], 0)


def test_encode_rejects_capacity_overflow(small_model):
    with pytest.raises(CapacityError):
        encode(small_model, [1, 2, 3], SMALL_CONFIG.max_positions - 2)


def test_prefix_empty_equals_plain_forward(small_model, rng):
    tokens = rng.integers(0, 256, 8).tolist()
    logits_a, _ = forward_with_prefix(small_model, None, tokens, 0)
    seg, hidden = encode(small_model, tokens, 0)
    logits_b = hidden @ small_model.head
    assert np.array_equal(logits_a, logits_b)
    assert seg.span_len == len(tokens)


@pytest.mark.parametrize("n1,n2", [(1, 1), (5, 9), (20, 20), (31, 33)])
def test_prefix_injection_matches_full_forward(small_model, rng, n1, n2):
    t1 = rng.integers(0, 256, n1).tolist()
    t2 = rng.integers(0, 256, n2).tolist()
    assert injection_error(small_model, t1, t2) <= 1e-4


def test_prefix_fingerprint_mismatch(small_model, rng):
    other = build_model(ModelConfig(weight_seed=SMALL_CONFIG.weight_seed + 1))
    seg, _ = encode(other, [1, 2, 3], 0)
    with pytest.raises(IncompatibilityError):
        forward_with_prefix(small_model, seg, [4, 5], 3)


def test_prefix_position_overlap(small_model):
    seg, _ = encode(small_model, [1, 2, 3], 0)
    with pytest.raises(PositionError):
        forward_with_prefix(small_model, seg, [4], 2)


def test_causality(small_model, rng):
    # perturbing token i never changes keys/values at earlier positions
    tokens = rng.integers(0, 256, 10).tolist()
    base, _ = encode(small_model, tokens, 0)
    mutated = list(tokens)
    mutated[6] = (mutated[6] + 1) % 256
    changed, _ = encode(small_model, mutated, 0)
    for l in range(base.num_layers):
        assert np.array_equal(base.keys[l][:, :6], changed.keys[l][:, :6])
        assert np.array_equal(base.values[l][:, :6], changed.values[l][:, :6])


def test_shape_law(small_model, rng):
    tokens = rng.integers(0, 256, 11).tolist()
    seg, _ = encode(small_model, tokens, 0)
    c = SMALL_CONFIG
    assert seg.payload_nbytes == 11 * c.num_layers * 2 * c.num_kv_heads * c.head_dim * 4


def test_greedy_zero_budget(small_model):
    assert greedy_decode(small_model, None, [1, 2], 0) == []


def test_greedy_deterministic(small_model, rng):
    prompt = rng.integers(0, 256, 6).tolist()
    a = greedy_decode(small_model, small_model.prefix_cache(None), prompt, 12)
    b = greedy_decode(small_model, small_model.prefix_cache(None), prompt, 12)
    assert a == b
    assert len(a) == 12


def test_greedy_stop_id_consumed_and_excluded(small_model, rng):
    prompt = rng.integers(0, 256, 6).tolist()
    logits, _ = forward_with_prefix(small_model, None, prompt, 0)
    first = int(np.argmax(logits[-1]))
    cache = small_model.prefix_cache(None)
    assert greedy_decode(small_model, cache, prompt, 10, stop_ids={first}) == []
    assert cache.span_len == len(prompt)  # the stop id is not fed back


def test_greedy_with_prefix_matches_decoding_over_concat(small_model, rng):
    t1 = rng.integers(0, 256, 7).tolist()
    t2 = rng.integers(0, 256, 5).tolist()
    prefix, _ = encode(small_model, t1, 0)
    cache = small_model.prefix_cache(prefix)
    with_prefix = greedy_decode(small_model, cache, t2, 8)
    plain = greedy_decode(small_model, small_model.prefix_cache(None), t1 + t2, 8)
    assert with_prefix == plain
    # decoded after the live span; the last output token is never fed back
    assert list(cache.segment().positions) == list(range(len(t1) + len(t2) + 7))


def _copy(seg):
    return [k.copy() for k in seg.keys], [v.copy() for v in seg.values], seg.positions.copy()


def test_segment_prefix_is_left_unchanged(small_model, rng):
    t1 = rng.integers(0, 256, 9).tolist()
    t2 = rng.integers(0, 256, 6).tolist()
    prefix, _ = encode(small_model, t1, 0)
    keys, values, positions = _copy(prefix)
    _, cache = forward_with_prefix(small_model, prefix, t2, len(t1))
    assert cache.span_len == len(t1) + len(t2) and prefix.span_len == len(t1)
    assert list(cache.segment().positions) == list(range(len(t1) + len(t2)))
    assert np.array_equal(prefix.positions, positions)
    for l in range(prefix.num_layers):
        assert np.array_equal(prefix.keys[l], keys[l])
        assert np.array_equal(prefix.values[l], values[l])


def test_cache_is_extended_in_place(small_model, rng):
    tokens = rng.integers(0, 256, 10).tolist()
    _, cache = forward_with_prefix(small_model, None, tokens[:7], 0)
    keys, values, positions = _copy(cache.segment())
    for pos in range(7, 10):
        _, again = forward_with_prefix(small_model, cache, [tokens[pos]], pos)
        assert again is cache
    full, _ = encode(small_model, tokens, 0)
    live = cache.segment()
    assert list(live.positions) == list(range(10))
    for l in range(cache.num_layers):
        # live slots are never rewritten by an extension
        assert np.array_equal(live.keys[l][:, :7], keys[l])
        assert np.array_equal(live.values[l][:, :7], values[l])
        assert np.abs(live.keys[l] - full.keys[l]).max() <= 1e-4
    assert np.array_equal(live.positions[:7], positions)


def test_cache_rejects_a_stale_start(small_model, rng):
    tokens = rng.integers(0, 256, 5).tolist()
    _, cache = forward_with_prefix(small_model, None, tokens, 0)
    forward_with_prefix(small_model, cache, [7], 5)
    for stale in (5, 3):
        with pytest.raises(PositionError):
            forward_with_prefix(small_model, cache, [8], stale)
    assert cache.span_len == 6 and cache.last_position == 5


def test_cache_capacity():
    model = build_model(
        ModelConfig(num_layers=2, num_heads=2, num_kv_heads=1, head_dim=4, max_positions=8)
    )
    _, cache = forward_with_prefix(model, None, [1] * 7, 0)
    forward_with_prefix(model, cache, [2], 7)
    assert cache.span_len == model.config.max_positions
    with pytest.raises(CapacityError):
        forward_with_prefix(model, cache, [3], 8)
    assert cache.span_len == 8
    # the cache itself refuses to overflow its buffers
    small = model.new_cache(2)
    k = np.zeros((1, 3, 4), dtype=np.float32)
    with pytest.raises(CapacityError):
        small.stage(0, k, k)
    with pytest.raises(CapacityError):
        KvCache.from_segment(encode(model, [1, 2, 3], 0)[0], 2)


def test_truncate_bounds(small_model, rng):
    _, cache = forward_with_prefix(small_model, None, rng.integers(0, 256, 5).tolist(), 0)
    for bad in (-1, 6):
        with pytest.raises(InputError):
            cache.truncate(bad)
    assert cache.span_len == 5
    cache.truncate(5)
    assert cache.span_len == 5
    cache.truncate(0)
    assert cache.span_len == 0 and cache.last_position == -1


def test_cache_segment_views_its_first_live_slots(small_model, rng):
    _, cache = forward_with_prefix(small_model, None, rng.integers(0, 256, 6).tolist(), 0)
    full = cache.segment()
    assert full.span_len == 6
    for stop in (0, 4, 6):
        head = cache.segment(stop)
        assert head.equals(full.slice(0, stop))
    assert np.shares_memory(cache.segment(4).keys[0], full.keys[0])  # no copy
    for bad in (-1, 7):
        with pytest.raises(InputError):
            cache.segment(bad)
    cache.truncate(3)
    with pytest.raises(InputError):
        cache.segment(4)  # slots past the live span are not segments


def test_forward_after_truncate_writes_from_the_cut(small_model, rng):
    head = [int(t) for t in rng.integers(0, 256, 5)]
    _, cache = forward_with_prefix(small_model, None, head + [1, 2, 3], 0)
    kept = [k.copy() for k in cache.segment(5).keys]
    cache.truncate(5)
    assert cache.last_position == 4
    # a start inside the dropped slots is no longer stale, and a different
    # tail overwrites them
    tokens = head + rng.integers(0, 256, 7).tolist()
    logits, again = forward_with_prefix(small_model, cache, tokens[5:], 5)
    assert again is cache and cache.span_len == len(tokens)
    live = cache.segment()
    assert list(live.positions) == list(range(len(tokens)))
    full, hidden = encode(small_model, tokens, 0)
    assert np.abs(logits[-1] - hidden[-1] @ small_model.head).max() <= 1e-5
    for l in range(cache.num_layers):
        assert np.array_equal(live.keys[l][:, :5], kept[l])
        assert np.abs(live.keys[l] - full.keys[l]).max() <= 1e-4
        assert np.abs(live.values[l] - full.values[l]).max() <= 1e-4


def test_nonfinite_segment_prefix_is_rejected(small_model, rng):
    t1 = rng.integers(0, 256, 6).tolist()
    prefix, _ = encode(small_model, t1, 0)
    prefix.values[1][0, 2, 3] = np.nan
    with pytest.raises(InputError):
        forward_with_prefix(small_model, prefix, [1, 2], len(t1))
    with pytest.raises(InputError):
        small_model.prefix_cache(prefix)


def test_prefill_memory_is_bounded():
    # growth of peak RSS (ru_maxrss: KB on Linux, bytes on macOS) over the
    # set-up's during a 4000-token encode; one BLAS thread, so per-thread
    # BLAS buffers do not scale with the host
    code = (
        "import resource, sys\n"
        "import numpy as np\n"
        "from lag.config import ModelConfig\n"
        "from lag.model import build_model, encode\n"
        "model = build_model(ModelConfig())\n"
        "tokens = np.random.default_rng(0).integers(0, 256, 4000).tolist()\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "encode(model, tokens, 0)\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print((peak - base) / (1 << 20 if sys.platform == 'darwin' else 1 << 10))\n"
    )
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env=child_env(**threads),
    )
    grown_mb = float(out.stdout)
    assert grown_mb < 64, f"a 4000-token encode grew peak RSS by {grown_mb:.0f} MB"


def test_encode_memory_is_its_kv_plus_one_score_tile():
    # a full-length encode on the default model holds its KV and, in the
    # attention kernel, one float32 [heads, TILE, keys] score tile at a time;
    # an untiled kernel would hold [heads, tokens, keys]
    cfg = ModelConfig()
    model = build_model(cfg)
    n = cfg.max_positions
    tokens = np.random.default_rng(0).integers(0, 256, n).tolist()
    kv_bytes = 2 * cfg.num_layers * cfg.num_kv_heads * n * cfg.head_dim * 4
    tile_bytes = cfg.num_heads * TILE * n * 4
    tracemalloc.start()
    try:
        encode(model, tokens, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * (kv_bytes + tile_bytes), f"encode peaked at {peak / 2**20:.1f} MB"


def test_rmsnorm_matches_the_mean_formula_bit_for_bit(rng):
    # the reduce-and-divide form must round exactly as np.mean did
    for shape in ((1, 64), (392, 64), (4000, 64)):
        for _ in range(50):
            scale = 10.0 ** rng.uniform(-3, 3)
            x = (rng.standard_normal(shape) * scale).astype(np.float32)
            want = x * (1.0 / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + _NORM_EPS))
            got = _rmsnorm(x)
            assert got.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig(num_heads=4, num_kv_heads=4, head_dim=8, max_positions=256),
        ModelConfig(max_positions=256),
        ModelConfig(num_layers=2, num_heads=6, num_kv_heads=2, head_dim=32,
                    max_positions=256),
        ModelConfig(num_layers=3, num_heads=6, num_kv_heads=3, head_dim=8,
                    max_positions=256, weight_seed=5),
    ],
    ids=["group1_d8", "group2_d16", "group3_d32", "group2_d8"],
)
def test_forward_matches_the_unfused_forward_bit_for_bit(config):
    # a 50-token prefill, a 129-token one after it (two tiles, the second of
    # one query) and 40 greedy decode steps, on both forms of the pass
    model = build_model(config)
    tokens = np.random.default_rng(3).integers(0, 256, 179).tolist()
    lean, unfused = model.new_cache(256), model.new_cache(256)

    def step(tokens, start):
        got, _ = forward_with_prefix(model, lean, tokens, start)
        want = unfused_logits(model, unfused, tokens, start)
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        return got

    step(tokens[:50], 0)
    logits = step(tokens[50:], 50)
    for position in range(179, 219):
        logits = step([int(np.argmax(logits[-1]))], position)
    got, want = lean.segment(), unfused.segment()
    assert got.span_len == want.span_len == 219
    assert got.keys.tobytes() == want.keys.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.positions.tobytes() == want.positions.tobytes()


def test_tokenizer_round_trip():
    tok = ByteTokenizer()
    text = "hello <ans>42</ans>"
    assert tok.decode(tok.encode(text)) == text
    assert all(0 <= i < 256 for i in tok.encode(text))
    assert tok.decode([104, 105, ByteTokenizer.EOS]) == "hi"
