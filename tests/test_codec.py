import hashlib
import struct
import zlib

import numpy as np
import pytest

import lag.codec
from lag.actions import Action
from lag.codec import (
    AgentTranscript,
    LogEntry,
    SelectionStrategy,
    deserialize,
    encode_log,
    serialize,
)
from lag.errors import ChecksumError, FormatError, InputError
from lag.segment import KvSegment
from lag.store import normalize


def transcript(*assistant, final=Action("none")):
    return AgentTranscript(
        turns=[(f"user {i}", a) for i, a in enumerate(assistant)],
        final_action=final,
    )


THREE_ROUNDS = transcript(
    "thinking about it <keywords>first clue</keywords>",
    "closer now <keywords>second clue</keywords>",
    "done <ans>the answer</ans>",
    final=Action("answer", "the answer"),
)


def test_strategy_validation():
    with pytest.raises(InputError):
        SelectionStrategy("nope")
    with pytest.raises(InputError):
        SelectionStrategy("last_round", "sideways")
    assert SelectionStrategy("all_rounds_text", "isolated").encoding == "full_trace"


def test_transcript_validation():
    with pytest.raises(InputError):
        AgentTranscript(turns=[])
    assert AgentTranscript(turns=[("u", "a"), ("u", "b")]).iterations == 2


def test_last_round_span(small_model, embedder):
    entry = encode_log(
        small_model, THREE_ROUNDS, SelectionStrategy("last_round"), embedder
    )
    msgs = THREE_ROUNDS.assistant_messages
    assert entry.kv.span_len == len(msgs[-1].encode())
    trace_len = sum(len(m.encode()) for m in msgs) + 2  # separators
    assert list(entry.kv.positions) == list(
        range(trace_len - entry.kv.span_len, trace_len)
    )
    assert entry.retrieval_key_text == msgs[-1]


def test_last_rounds_spans_grow(small_model, embedder):
    spans = {}
    for kind in ("last_action", "last_round", "last_2_rounds", "last_3_rounds"):
        entry = encode_log(small_model, THREE_ROUNDS, SelectionStrategy(kind), embedder)
        spans[kind] = entry.kv.span_len
    assert (
        spans["last_action"]
        <= spans["last_round"]
        <= spans["last_2_rounds"]
        <= spans["last_3_rounds"]
    )
    assert spans["last_action"] == len("the answer")


def test_one_round_full_trace_equals_isolated(small_model, embedder):
    one = transcript("only message <ans>x</ans>")
    full = encode_log(
        small_model, one, SelectionStrategy("last_round", "full_trace"), embedder
    )
    isolated = encode_log(
        small_model, one, SelectionStrategy("last_round", "isolated"), embedder
    )
    assert full.kv.equals(isolated.kv)


def test_two_round_full_trace_differs_from_isolated(small_model, embedder):
    two = transcript("a very distinct first round", "short last <ans>y</ans>")
    full = encode_log(
        small_model, two, SelectionStrategy("last_round", "full_trace"), embedder
    )
    isolated = encode_log(
        small_model, two, SelectionStrategy("last_round", "isolated"), embedder
    )
    diffs = [
        np.abs(full.kv.keys[l] - isolated.kv.keys[l]).max()
        for l in range(full.kv.num_layers)
    ]
    assert max(diffs) > 1e-3


def test_changing_round_one_changes_stored_last_round(small_model, embedder):
    strategy = SelectionStrategy("last_round", "full_trace")
    a = encode_log(
        small_model,
        transcript("first version", "middle", "same last <ans>z</ans>"),
        strategy,
        embedder,
    )
    b = encode_log(
        small_model,
        transcript("second uersion", "middle", "same last <ans>z</ans>"),
        strategy,
        embedder,
    )
    assert a.kv.span_len == b.kv.span_len
    assert max(
        np.abs(a.kv.keys[l] - b.kv.keys[l]).max() for l in range(a.kv.num_layers)
    ) > 0


def test_last_action_excludes_tags(small_model, embedder):
    entry = encode_log(
        small_model, THREE_ROUNDS, SelectionStrategy("last_action"), embedder
    )
    assert entry.kv.span_len == len("the answer")
    assert not entry.fallback_warning


def test_last_action_fallback(small_model, embedder):
    no_tags = transcript("round one", "no action at all here")
    entry = encode_log(
        small_model, no_tags, SelectionStrategy("last_action"), embedder
    )
    assert entry.fallback_warning
    assert entry.kv.span_len == len("no action at all here")


def test_text_strategies_store_no_kv(small_model, embedder):
    for kind, expected in (
        ("all_rounds_text", "\n".join(THREE_ROUNDS.assistant_messages)),
        ("last_round_text", THREE_ROUNDS.assistant_messages[-1]),
    ):
        entry = encode_log(None, THREE_ROUNDS, SelectionStrategy(kind), embedder)
        assert entry.kv is None
        assert entry.text_payload == expected
    all_entry = encode_log(
        None, THREE_ROUNDS, SelectionStrategy("all_rounds_text"), embedder
    )
    assert all_entry.retrieval_key_text == "\n".join(THREE_ROUNDS.assistant_messages)
    last_entry = encode_log(
        None, THREE_ROUNDS, SelectionStrategy("last_round_text"), embedder
    )
    assert last_entry.retrieval_key_text == THREE_ROUNDS.assistant_messages[-1]


def test_kv_strategy_without_model_raises(embedder):
    with pytest.raises(InputError):
        encode_log(None, THREE_ROUNDS, SelectionStrategy("last_round"), embedder)


def _random_entry(rng, kv=True, geometry=None):
    """A random entry; a KV one has random (layers, KV heads, head dim)
    unless ``geometry`` fixes them."""
    strategy_kind = (
        rng.choice(["last_action", "last_round", "last_2_rounds", "last_3_rounds"])
        if kv
        else rng.choice(["all_rounds_text", "last_round_text"])
    )
    encoding = rng.choice(["full_trace", "isolated"]) if kv else "full_trace"
    segment = None
    text = None
    if kv:
        layers = int(rng.integers(1, 4))
        heads = int(rng.integers(1, 3))
        span = int(rng.integers(1, 7))
        dim = int(rng.integers(1, 4)) * 2
        start = int(rng.integers(0, 50))
        if geometry is not None:
            layers, heads, dim = geometry
        segment = KvSegment(
            keys=rng.standard_normal((layers, heads, span, dim)).astype(np.float32),
            values=rng.standard_normal((layers, heads, span, dim)).astype(np.float32),
            positions=np.arange(start, start + span, dtype=np.int64),
            model_fingerprint=bytes(rng.integers(0, 256, 32, dtype=np.uint8)).hex(),
        )
    else:
        text = "payload é" * int(rng.integers(1, 5))
    return LogEntry(
        task_text="task " + str(rng.integers(0, 1000)),
        retrieval_key_text="key ☃ " + str(rng.integers(0, 1000)),
        embedding=normalize(rng.standard_normal(int(rng.integers(2, 9))).astype(np.float32)),
        strategy=SelectionStrategy(str(strategy_kind), str(encoding)),
        kv=segment,
        text_payload=text,
        fallback_warning=bool(rng.integers(0, 2)),
    )


def test_serialize_round_trip_100_random_entries(rng):
    for i in range(100):
        entry = _random_entry(rng, kv=bool(i % 2))
        blob = serialize(entry)
        back = deserialize(blob)
        assert serialize(back) == blob


def _sized_entry(rng, span, layers, kv_heads, head_dim):
    seg = KvSegment(
        keys=rng.standard_normal((layers, kv_heads, span, head_dim)).astype(np.float32),
        values=rng.standard_normal((layers, kv_heads, span, head_dim)).astype(np.float32),
        positions=np.arange(span, dtype=np.int64),
        model_fingerprint="ab" * 32,
    )
    return seg, LogEntry(
        task_text="t",
        retrieval_key_text="k",
        embedding=np.zeros(4, dtype=np.float32),
        strategy=SelectionStrategy("last_action"),
        kv=seg,
    )


def _serialized_payload_bytes(entry):
    blob = serialize(entry)
    header = (
        4 + 2 + 32 + 2 + 16
        + 4 * entry.kv.span_len
        + 4 + 4 * entry.embedding.shape[0]
        + 4 + len(entry.task_text.encode())
        + 4 + len(entry.retrieval_key_text.encode())
    )
    return len(blob) - header - 4


@pytest.mark.parametrize(
    "span,layers,kv_heads,head_dim,expected",
    [(10, 4, 2, 16, 10240), (10, 4, 2, 64, 40960)],
)
def test_serialized_payload_size_law(rng, span, layers, kv_heads, head_dim, expected):
    seg, entry = _sized_entry(rng, span, layers, kv_heads, head_dim)
    assert seg.payload_nbytes == span * layers * 2 * kv_heads * head_dim * 4 == expected
    assert _serialized_payload_bytes(entry) == expected


def test_size_law_random_configurations(rng):
    for _ in range(20):
        span = int(rng.integers(1, 12))
        layers = int(rng.integers(1, 5))
        kv_heads = int(rng.integers(1, 4))
        head_dim = 2 * int(rng.integers(1, 9))
        seg, entry = _sized_entry(rng, span, layers, kv_heads, head_dim)
        expected = span * layers * 2 * kv_heads * head_dim * 4
        assert seg.payload_nbytes == expected
        assert _serialized_payload_bytes(entry) == expected


def test_fingerprint_of_other_than_32_bytes_is_refused(rng):
    # the header holds exactly 32 fingerprint bytes; padding or cutting
    # one would store a different fingerprint than the entry's
    for nbytes in (16, 33):
        seg, entry = _sized_entry(rng, 2, 1, 1, 2)
        seg.model_fingerprint = "ab" * nbytes
        with pytest.raises(InputError):
            serialize(entry)


def test_text_entry_header_declares_text():
    entry = LogEntry(
        task_text="t",
        retrieval_key_text="k",
        embedding=np.zeros(3, dtype=np.float32),
        strategy=SelectionStrategy("last_round_text"),
        text_payload="hello",
    )
    blob = serialize(entry)
    payload_kind = blob[4 + 2 + 32 + 1]
    assert payload_kind == 1
    assert b"hello" in blob


def test_truncated_buffer_is_format_error(rng):
    blob = serialize(_random_entry(rng))
    with pytest.raises(FormatError):
        deserialize(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        deserialize(blob[:10])


def test_flipped_payload_byte_is_checksum_error(rng):
    blob = bytearray(serialize(_random_entry(rng)))
    blob[-20] ^= 0x01  # inside the KV payload
    with pytest.raises(ChecksumError):
        deserialize(bytes(blob))


def test_bad_magic_is_format_error(rng):
    blob = bytearray(serialize(_random_entry(rng)))
    blob[0] ^= 0xFF
    with pytest.raises(FormatError):
        deserialize(bytes(blob))


def test_bytes_after_a_kv_payload_are_format_error(rng):
    blob = bytearray(serialize(_random_entry(rng))[:-4] + b"\0" * 4)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    with pytest.raises(FormatError, match="trailing bytes"):
        deserialize(bytes(blob))


@pytest.mark.parametrize("kv", [True, False], ids=["kv", "text"])
def test_crc_valid_mutation_decodes_or_is_format_error(kv):
    # a damaged byte under a matching CRC: bad UTF-8 in a text field must
    # fail like any other structural damage, not as UnicodeDecodeError, and
    # a header field the decoded entry does not carry (a text entry's
    # fingerprint or dimensions, a stray strategy bit) must not be dropped
    rng = np.random.default_rng(7)
    blob = serialize(_random_entry(rng, kv=kv))
    failed = 0
    for _ in range(1000):
        damaged = bytearray(blob)
        damaged[int(rng.integers(len(blob) - 4))] ^= int(rng.integers(1, 256))
        damaged[-4:] = struct.pack("<I", zlib.crc32(damaged[:-4]) & 0xFFFFFFFF)
        try:
            entry = deserialize(bytes(damaged))
        except FormatError:
            failed += 1
            continue
        assert isinstance(entry, LogEntry)
        header = lag.codec._header(entry)
        assert header == bytes(damaged[: len(header)])
    assert 0 < failed < 1000


@pytest.mark.parametrize("kv", [True, False], ids=["kv", "text"])
def test_strategy_that_contradicts_the_payload_is_format_error(rng, kv):
    # a text kind over a KV payload, or a KV kind over a text payload, would
    # decode into an entry that serialize refuses
    blob = bytearray(serialize(_random_entry(rng, kv=kv)))
    strategy_at = 4 + 2 + 32
    kind = "last_round_text" if kv else "last_round"
    blob[strategy_at] = lag.codec.KINDS.index(kind)
    blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]) & 0xFFFFFFFF)
    with pytest.raises(FormatError):
        deserialize(bytes(blob))


def test_round_trip_preserves_positions_exactly(small_model, embedder):
    entry = encode_log(
        small_model, THREE_ROUNDS, SelectionStrategy("last_action"), embedder
    )
    back = deserialize(serialize(entry))
    assert np.array_equal(back.kv.positions, entry.kv.positions)


# sha256 of the entry below as format v1 writes it
KV_ENTRY_SHA256 = "7f04aacaff80b84a4e3c5fe52fdb3321b8c57d1393659660dea0f4b8ff48f791"


def test_kv_wire_format_is_pinned(small_model, embedder):
    # a model-encoded entry with its keys and values rounded to multiples of
    # 1/64, so that the digest pins the byte layout and not the last bits of
    # the host's float kernels
    entry = encode_log(
        small_model, THREE_ROUNDS, SelectionStrategy("last_2_rounds"), embedder,
        task_text="the task",
    )
    for array in (*entry.kv.keys, *entry.kv.values):
        array *= 64
        np.round(array, out=array)
        array /= 64
    blob = serialize(entry)
    assert hashlib.sha256(blob).hexdigest() == KV_ENTRY_SHA256
    assert serialize(deserialize(blob)) == blob


def test_payload_requires_exactly_one_kind():
    with pytest.raises(InputError):
        serialize(
            LogEntry(
                task_text="",
                retrieval_key_text="",
                embedding=np.zeros(2, dtype=np.float32),
                strategy=SelectionStrategy("last_round"),
            )
        )


def _ones_entry(kv_heads, fingerprint="f"):
    ones = np.ones((1, kv_heads, 3, 4), dtype=np.float32)
    return LogEntry(
        task_text="t",
        retrieval_key_text="t",
        embedding=np.ones(2, dtype=np.float32),
        strategy=SelectionStrategy("last_round"),
        kv=KvSegment(ones, ones.copy(), np.arange(3), fingerprint),
    )


def test_segments_with_different_head_counts_are_unequal():
    # a broadcasting comparison would call these equal: same values, 1 vs 2 heads
    one, two = _ones_entry(1, "f" * 64), _ones_entry(2, "f" * 64)
    assert not one.kv.equals(two.kv)
    assert not two.kv.equals(one.kv)
    assert serialize(one) != serialize(two)
    assert serialize(one) == serialize(_ones_entry(1, "f" * 64))


def test_segment_equality_is_exact():
    a = _ones_entry(2).kv
    assert a.equals(_ones_entry(2).kv)
    assert not a.equals(_ones_entry(2, fingerprint="g").kv)
    moved = _ones_entry(2).kv
    moved.positions = moved.positions + 1
    assert not a.equals(moved)
    nudged = _ones_entry(2).kv
    nudged.values[0][1, 2, 3] = np.nextafter(np.float32(1), np.float32(2))
    assert not a.equals(nudged)
    fewer = _ones_entry(2).kv
    fewer.values = fewer.values[1:]  # one layer fewer
    assert not a.equals(fewer)
    a.keys[0][0, 0, 0] = np.nan
    assert not a.equals(a)
