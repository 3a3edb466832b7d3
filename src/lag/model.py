"""Deterministic decoder-only reference transformer with exportable KV caches.

The model exists to make KV mechanics testable: weights are seeded random
(never trained), everything is float32, and the forward pass accepts an
injected KV prefix whose keys already carry rotary rotations for positions
preceding the new tokens.
"""

from __future__ import annotations

import numpy as np

from ._kernels import causal_attention, rotate_pairs
from .config import VOCAB_SIZE, ModelConfig
from .errors import CapacityError, IncompatibilityError, InputError, PositionError
from .rope import cos_sin_table
from .segment import KvCache, KvSegment

_NORM_EPS = np.float32(1e-5)
_GELU_HALF = np.float32(0.5)
_GELU_ONE = np.float32(1.0)
_GELU_C = np.float32(np.sqrt(2.0 / np.pi))
_GELU_CUBE = np.float32(0.044715)
# greedy_decode's draft keys: the context's last 3 tokens, else its last 2
_DRAFT_NGRAMS = (3, 2)


class ByteTokenizer:
    """Byte-level tokenizer: ids 0..255 are raw bytes, 256 is end-of-text."""

    EOS = 256
    vocab_size = VOCAB_SIZE

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, ids) -> str:
        return bytes(i for i in ids if 0 <= i < 256).decode("utf-8", errors="replace")


def _rmsnorm(x: np.ndarray) -> np.ndarray:
    # np.mean's float32 sum and divide, without its Python wrapper
    scale = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    scale /= np.float32(x.shape[-1])
    scale += _NORM_EPS
    np.sqrt(scale, out=scale)
    np.reciprocal(scale, out=scale)
    return x * scale


def _gelu(x: np.ndarray) -> np.ndarray:
    """0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))): the same float32
    operations in the same order, in two buffers instead of nine."""
    inner = _GELU_CUBE * x
    inner *= x
    inner *= x
    inner += x
    inner *= _GELU_C
    np.tanh(inner, out=inner)
    inner += _GELU_ONE
    out = _GELU_HALF * x
    out *= inner
    return out


class Model:
    """Pre-norm decoder stack with grouped KV heads and rotary positions.

    Weights are a pure function of (config, weight_seed); instances are
    immutable after construction and safe to share across threads.

    Each layer projects q, k and v with three products, copies the q and
    k heads into one array and rotates it in place with one
    ``rotate_pairs`` call, so a forward pass makes one rotation per layer;
    v is staged into the cache as a view. One fused product with
    ``[wq | wk | wv]`` would make fewer calls, but BLAS rounds a column
    block of a wider product differently from the block on its own for
    many widths (1074 of 1920 shapes tried on OpenBLAS 0.3.31), so the
    output would change with the head layout; at the default config its
    decode step was within noise of three products (2% faster, in 26 of
    40 rounds).
    """

    rope_params = None  # lagbench's prefix check passes it; reposition_segment ignores it

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.fingerprint = config.fingerprint()
        h = config.hidden_dim
        nh, nkv, d = config.num_heads, config.num_kv_heads, config.head_dim
        rng = np.random.default_rng(config.weight_seed)
        std = 1.0 / np.sqrt(h)

        def w(*shape):
            return rng.normal(0.0, std, size=shape).astype(np.float32)

        self.embedding = w(ByteTokenizer.vocab_size, h)
        self.layers = [
            {
                "wq": w(h, nh * d),
                "wk": w(h, nkv * d),
                "wv": w(h, nkv * d),
                "wo": w(nh * d, h),
                "w1": w(h, 4 * h),
                "w2": w(4 * h, h),
            }
            for _ in range(config.num_layers)
        ]
        self.head = w(h, ByteTokenizer.vocab_size)

    # -- internals ---------------------------------------------------------

    def _check_tokens(self, tokens: np.ndarray) -> None:
        if tokens.size and (
            np.minimum.reduce(tokens) < 0
            or np.maximum.reduce(tokens) >= ByteTokenizer.vocab_size
        ):
            raise InputError("token id out of vocabulary")

    def prefix_cache(self, prefix: KvSegment | None) -> KvCache:
        """A cache of ``max_positions`` slots holding a copy of ``prefix``,
        empty for None or an empty segment. The prefix is validated, checked
        against the model and written through ``stage`` and ``commit``, as a
        forward pass writes its tokens."""
        cfg = self.config
        cache = KvCache(
            cfg.num_layers, cfg.num_kv_heads, cfg.head_dim, cfg.max_positions,
            self.fingerprint,
        )
        if prefix is not None and prefix.span_len:
            prefix.validate()
            self.check_kv(prefix)
            for layer in range(cfg.num_layers):
                cache.stage(layer, prefix.keys[layer], prefix.values[layer])
            cache.commit(prefix.positions)
        return cache

    def check_kv(self, kv: KvSegment | KvCache) -> None:
        """Refuse KV that this model cannot attend to: another model's
        fingerprint, or another (layers, KV heads, head dim) shape."""
        cfg = self.config
        if kv.model_fingerprint != self.fingerprint:
            raise IncompatibilityError("KV belongs to a different model")
        shape = (kv.num_layers, kv.num_kv_heads, kv.head_dim)
        want = (cfg.num_layers, cfg.num_kv_heads, cfg.head_dim)
        if shape != want:
            raise IncompatibilityError(
                f"KV shape (layers, KV heads, head dim) {shape} is not the model's {want}"
            )

    def _forward(self, tokens, start_position: int, cache: KvCache) -> np.ndarray:
        """Runs the new tokens over the cache, extends it in place with their
        KV (keys rotated at their absolute positions) and returns the final
        hidden states [T, hidden]."""
        tokens = np.asarray(tokens, dtype=np.int64)
        self._check_tokens(tokens)
        t_new = tokens.shape[0]
        if start_position < 0:
            raise InputError("start_position must be >= 0")
        if start_position + t_new > self.config.max_positions:
            raise CapacityError(
                f"sequence end {start_position + t_new} exceeds max_positions "
                f"{self.config.max_positions}"
            )
        self.check_kv(cache)
        if cache.last_position >= start_position:  # O(1): a cache's positions increase
            raise PositionError(
                f"prefix positions reach {cache.last_position}, new tokens start at "
                f"{start_position}"
            )
        n_prefix = cache.span_len

        cfg = self.config
        nh, nkv, d = cfg.num_heads, cfg.num_kv_heads, cfg.head_dim
        positions = np.arange(start_position, start_position + t_new, dtype=np.int64)
        cos, sin = cos_sin_table(d, positions)

        x = self.embedding[tokens]
        for li, layer in enumerate(self.layers):
            xn = _rmsnorm(x)
            q = (xn @ layer["wq"]).reshape(t_new, nh, d).transpose(1, 0, 2)
            k = (xn @ layer["wk"]).reshape(t_new, nkv, d).transpose(1, 0, 2)
            v = (xn @ layer["wv"]).reshape(t_new, nkv, d).transpose(1, 0, 2)
            # the q and k heads, copied into one array, rotate in place at once
            qk = np.concatenate((q, k))
            rotate_pairs(qk, cos, sin, out=qk)
            k_all, v_all = cache.stage(li, qk[nh:], v)
            att = causal_attention(qk[:nh], k_all, v_all, n_prefix)
            x = x + att.transpose(1, 0, 2).reshape(t_new, nh * d) @ layer["wo"]
            xf = _rmsnorm(x)
            x = x + _gelu(xf @ layer["w1"]) @ layer["w2"]
        cache.commit(positions)
        return _rmsnorm(x)


def build_model(config: ModelConfig) -> Model:
    """Build the reference model; identical (config, seed) gives identical
    weights."""
    return Model(config)


def encode(
    model: Model, tokens, start_position: int = 0
) -> tuple[KvSegment, np.ndarray]:
    """Full KV cache for a token sequence encoded at the given positions,
    plus the final hidden states."""
    cfg = model.config
    cache = KvCache(
        cfg.num_layers, cfg.num_kv_heads, cfg.head_dim, len(tokens), model.fingerprint
    )
    hidden = model._forward(tokens, start_position, cache)
    return cache.segment(), hidden


def forward_with_prefix(
    model: Model,
    prefix: KvSegment | KvCache | None,
    tokens,
    start_position: int,
) -> tuple[np.ndarray, KvCache]:
    """Logits for new tokens attending to an injected KV prefix; returns the
    combined cache (prefix followed by the new tokens' KV).

    A KvSegment prefix is validated and copied into a new KvCache of
    ``max_positions`` slots, and is left unchanged. A KvCache prefix is
    extended in place and returned, so passing it back decodes the next
    token without copying the cache.
    """
    cache = prefix if isinstance(prefix, KvCache) else model.prefix_cache(prefix)
    hidden = model._forward(tokens, start_position, cache)
    return hidden @ model.head, cache


def greedy_decode(
    model: Model,
    cache: KvCache,
    prompt,
    max_new: int,
    stop_ids=frozenset(),
) -> list[int]:
    """Deterministic argmax decoding of ``prompt`` after the cache's live
    span. A generated stop id is consumed but excluded from the returned
    sequence. The cache is extended in place and ends holding the prompt and
    the output, less its last token on a ``max_new`` stop (it is never fed
    back), and never a stop id.

    Tokens are checked in batches, as in speculative decoding (Leviathan et
    al., 2023) with a draft copied from the context, as in LLMA (Yang et al.,
    2023). The context is this call's prompt plus the output so far. After
    each output token, its last 3 tokens, else its last 2, are looked up at
    their first earlier occurrence, and the tokens that followed it are the
    draft. One pass feeds the output token and the draft; the longest run of
    the draft that the pass's argmaxes agree with, stopping before a stop
    id, is output, the next token comes from the row after it and the cache
    is truncated to drop the rest. The draft holds at most ``limit`` tokens:
    1 at first, doubled after a draft is accepted in full, and
    ``max(1, accepted)`` after one is not. It is also capped so the pass
    fits in ``max_new``, ``max_positions`` and the cache. The output is the
    one-token-per-pass loop's up to float order: a pass of several rows
    rounds differently from a pass of one, so logits are not bit-identical.
    """
    out: list[int] = []
    if max_new <= 0:
        return out
    context = list(prompt)
    if not context:
        raise InputError("greedy_decode needs a non-empty prompt")
    pos = cache.last_position + 1
    logits, _ = forward_with_prefix(model, cache, context, pos)
    pos += len(context)
    firsts: dict[tuple[int, ...], int] = {}  # n-gram -> its first start in context
    for n in _DRAFT_NGRAMS:
        for i in range(len(context) - n + 1):
            firsts.setdefault(tuple(context[i : i + n]), i)

    def push(tok: int) -> int | None:
        """Appends an output token; returns where the tokens after the first
        earlier occurrence of the context's last n-gram start, if any."""
        out.append(tok)
        context.append(tok)
        after = None
        for n in _DRAFT_NGRAMS:
            if len(context) >= n:
                start = firsts.setdefault(tuple(context[-n:]), len(context) - n)
                if after is None and start < len(context) - n:
                    after = start + n
        return after

    max_positions = model.config.max_positions
    limit = 1
    next_id = int(np.argmax(logits[-1]))
    while next_id not in stop_ids:
        after = push(next_id)
        if len(out) >= max_new:
            break
        room = min(
            max_new - len(out), max_positions - pos, cache.capacity - cache.span_len
        ) - 1
        draft = context[after : after + min(limit, room)] if after is not None else []
        logits, _ = forward_with_prefix(model, cache, [next_id] + draft, pos)
        best = np.argmax(logits, axis=-1).tolist()
        accepted = 0
        while (
            accepted < len(draft)
            and best[accepted] == draft[accepted]
            and draft[accepted] not in stop_ids
        ):
            accepted += 1
        if draft:
            limit = 2 * limit if accepted == len(draft) else max(1, accepted)
        cache.truncate(cache.span_len - len(draft) + accepted)
        pos += 1 + accepted
        for tok in draft[:accepted]:
            push(tok)
        next_id = best[accepted]
    return out
