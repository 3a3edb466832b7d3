import functools
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lag.model
from lag._kernels import TILE
from lag.config import ROPE_BASE, VOCAB_SIZE, ModelConfig
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
from lag.rope import reposition_segment
from lag.segment import KvCache, KvSegment
from tests.conftest import SMALL_CONFIG, child_env
from tests.oracles import injection_error, stepwise_greedy_decode, unfused_logits


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
    assert (VOCAB_SIZE, ROPE_BASE) == (257, 10000.0)


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


@pytest.mark.parametrize("of", ["segment", "cache", "prefix_cache"])
@pytest.mark.parametrize(
    "change",
    [
        {"model_fingerprint": "00" * 32},
        {"num_layers": SMALL_CONFIG.num_layers + 1},
        {"num_kv_heads": SMALL_CONFIG.num_kv_heads * 2},
        {"head_dim": SMALL_CONFIG.head_dim + 2},
    ],
    ids=["fingerprint", "layers", "kv_heads", "head_dim"],
)
def test_check_kv_refuses_kv_of_another_model(small_model, of, change):
    # prefix_cache checks a one-token segment as it builds the cache
    cfg = small_model.config
    own = dict(
        num_layers=cfg.num_layers, num_kv_heads=cfg.num_kv_heads, head_dim=cfg.head_dim,
        model_fingerprint=small_model.fingerprint,
    )

    def check(num_layers, num_kv_heads, head_dim, model_fingerprint):
        if of == "prefix_cache":
            kv = np.zeros((num_layers, num_kv_heads, 1, head_dim), dtype=np.float32)
            positions = np.zeros(1, dtype=np.int64)
            small_model.prefix_cache(KvSegment(kv, kv, positions, model_fingerprint))
            return
        cache = KvCache(num_layers, num_kv_heads, head_dim, 4, model_fingerprint)
        small_model.check_kv(cache if of == "cache" else cache.segment())

    check(**own)
    with pytest.raises(IncompatibilityError):
        check(**{**own, **change})


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
    small = KvCache(2, 1, 4, 2, model.fingerprint)
    k = np.zeros((1, 3, 4), dtype=np.float32)
    with pytest.raises(CapacityError):
        small.stage(0, k, k)
    # so a prefix longer than max_positions is refused as it is staged
    halves = [encode(model, [1] * 5, 0)[0], encode(model, [2] * 4, 0)[0]]
    with pytest.raises(CapacityError):
        model.prefix_cache(reposition_segment(KvSegment.concat(halves), np.arange(9)))


def test_prefix_cache_holds_a_copy_of_its_prefix(small_model, rng):
    prefix, _ = encode(small_model, rng.integers(0, 256, 7).tolist(), 3)
    kept = KvSegment(
        prefix.keys.copy(), prefix.values.copy(), prefix.positions.copy(),
        prefix.model_fingerprint,
    )
    cache = small_model.prefix_cache(prefix)
    assert cache.capacity == small_model.config.max_positions
    assert cache.segment().equals(prefix)
    assert not np.shares_memory(cache.segment().keys, prefix.keys)
    forward_with_prefix(small_model, cache, [1, 2], 10)  # extends the copy only
    assert prefix.equals(kept)


def test_prefix_cache_refuses_a_malformed_prefix(small_model):
    seg, _ = encode(small_model, [1, 2, 3], 0)
    fp = seg.model_fingerprint
    # validated before the shape check, so 3-D keys fail as InputError, not IndexError
    with pytest.raises(InputError, match="are not"):
        small_model.prefix_cache(KvSegment(seg.keys[0], seg.values[0], seg.positions, fp))
    with pytest.raises(PositionError, match="strictly increasing"):
        small_model.prefix_cache(KvSegment(seg.keys, seg.values, seg.positions[::-1], fp))


def test_concat_refuses_spans_of_two_models_or_two_shapes(small_model):
    seg, _ = encode(small_model, [1, 2], 0)
    with pytest.raises(IncompatibilityError):
        KvSegment.concat([seg, KvSegment(seg.keys, seg.values, seg.positions, "00" * 32)])
    # one KV head would broadcast into two without the check
    narrow = KvSegment(seg.keys[:, :1], seg.values[:, :1], seg.positions, seg.model_fingerprint)
    with pytest.raises(InputError, match="cannot concat a span of shape"):
        KvSegment.concat([seg, narrow])


def test_negative_start_position_is_refused(small_model):
    with pytest.raises(InputError, match="start_position must be >= 0"):
        forward_with_prefix(small_model, None, [1, 2], -1)


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
    lean, unfused = model.prefix_cache(None), model.prefix_cache(None)

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


# -- greedy_decode's drafts against one token per pass --------------------------

DECODE_CONFIGS = {
    "default": ModelConfig(),
    "small": SMALL_CONFIG,
    "kv3_d8": ModelConfig(num_layers=3, num_heads=6, num_kv_heads=3, head_dim=8),
}


@functools.cache
def decode_model(name):
    return build_model(DECODE_CONFIGS[name])


def decode_prompt(kind, seed, n=24):
    rng = np.random.default_rng(seed)
    if kind == "repeating":
        return [int(rng.integers(0, 256))] * n
    if kind == "periodic":
        return (rng.integers(0, 256, 3).tolist() * n)[:n]
    return rng.integers(0, 256, n).tolist()


def assert_decodes_like_the_oracle(model, make_cache, prompt, max_new, stop_ids=frozenset()):
    """greedy_decode and one token per pass give the same ids and leave their
    caches with the same span and positions."""
    want_cache, got_cache = make_cache(), make_cache()
    want = stepwise_greedy_decode(model, want_cache, prompt, max_new, stop_ids)
    got = greedy_decode(model, got_cache, prompt, max_new, stop_ids)
    assert got == want
    assert got_cache.span_len == want_cache.span_len
    assert np.array_equal(got_cache.segment().positions, want_cache.segment().positions)
    return got


@pytest.mark.parametrize("name", DECODE_CONFIGS)
@pytest.mark.parametrize("kind", ["repeating", "periodic", "random"])
@pytest.mark.parametrize("max_new", [1, 2, 64])
def test_greedy_decode_matches_one_token_per_pass(name, kind, max_new):
    model = decode_model(name)
    for seed in range(3):
        prompt = decode_prompt(kind, seed)
        assert_decodes_like_the_oracle(model, lambda: model.prefix_cache(None), prompt, max_new)


@pytest.mark.parametrize("name", DECODE_CONFIGS)
def test_greedy_decode_after_a_kv_prefix_matches_one_token_per_pass(name):
    model = decode_model(name)
    prefix, _ = encode(model, decode_prompt("random", 7, 40), 0)
    for kind in ("repeating", "periodic", "random"):
        assert_decodes_like_the_oracle(
            model, lambda: model.prefix_cache(prefix), decode_prompt(kind, 8), 64
        )


def test_greedy_decode_never_accepts_a_stop_id_from_a_draft(monkeypatch):
    # the prompt ends with the model's own periodic output, so the first
    # draft copies its next token from the prompt; that token is the stop id
    model = decode_model("kv3_d8")
    head = decode_prompt("repeating", 2)
    out = stepwise_greedy_decode(model, model.prefix_cache(None), head, 8)
    prompt, stop = head + out[:4], out[5]
    assert out[4:6] == out[:2]  # the output repeats with period 2
    fed = []
    real = lag.model.forward_with_prefix

    def recording(model, prefix, tokens, start_position):
        fed.append(list(tokens))
        return real(model, prefix, tokens, start_position)

    monkeypatch.setattr(lag.model, "forward_with_prefix", recording)
    got = assert_decodes_like_the_oracle(
        model, lambda: model.prefix_cache(None), prompt, 64, {stop})
    assert got == [out[4]]
    assert [out[4], stop] in fed  # the draft held the stop id the pass then predicted


@pytest.mark.parametrize("name", DECODE_CONFIGS)
@pytest.mark.parametrize("kind", ["repeating", "periodic", "random"])
def test_greedy_decode_near_max_positions_matches_one_token_per_pass(name, kind):
    # the prompt ends 5 positions before the end: 6 new tokens fill them (the
    # last is never fed back), and a 7th would need a position past the end
    model = decode_model(name)
    end = model.config.max_positions
    prefix, _ = encode(model, decode_prompt("random", 9, 16), end - 16 - 24 - 5)

    def make_cache():
        return model.prefix_cache(prefix)

    got = assert_decodes_like_the_oracle(model, make_cache, decode_prompt(kind, 10), 6)
    assert len(got) == 6
    assert make_cache().capacity == end
    for decode in (stepwise_greedy_decode, greedy_decode):
        with pytest.raises(CapacityError):
            decode(model, make_cache(), decode_prompt(kind, 10), 7)


def test_greedy_decode_drafts_stop_at_the_last_position():
    # 16 tokens repeat and then the model predicts EOS; the prompt leaves
    # exactly 16 positions, so an uncapped draft of the repeat would need
    # positions past the end, where one token per pass stops on EOS in time
    model = decode_model("default")
    end = model.config.max_positions
    prompt = decode_prompt("repeating", 1)
    prefix, _ = encode(model, prompt[:1], end - len(prompt) - 16 - 1)
    got = assert_decodes_like_the_oracle(
        model, lambda: model.prefix_cache(prefix), prompt, 64, {ByteTokenizer.EOS})
    assert got == [22] * 16


def test_tokenizer_round_trip():
    tok = ByteTokenizer()
    text = "hello <ans>42</ans>"
    assert tok.decode(tok.encode(text)) == text
    assert all(0 <= i < 256 for i in tok.encode(text))
    assert tok.decode([104, 105, ByteTokenizer.EOS]) == "hi"
