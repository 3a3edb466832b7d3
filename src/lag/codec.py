"""Turning finished transcripts into log entries, and the entry wire format.

The codec is where the encode-vs-store distinction lives: with ``full_trace``
encoding, the whole sequence of assistant messages is pushed through the
model once and only the KV slice of the selected span is kept, so the stored
keys/values have attended to everything the agent said earlier. ``isolated``
encoding feeds the selected span through the model alone, losing that
context on purpose (the ablation baseline). Text strategies skip the model
entirely and store the span as plain text.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .actions import Action, find_last_action_span
from .config import TEXT_FINGERPRINT
from .errors import ChecksumError, FormatError, InputError
from .model import Model, encode
from .segment import KvSegment

KV_KINDS = ("last_action", "last_round", "last_2_rounds", "last_3_rounds")
TEXT_KINDS = ("all_rounds_text", "last_round_text")
KINDS = KV_KINDS + TEXT_KINDS
ENCODINGS = ("full_trace", "isolated")

_KIND_CODE = {k: i for i, k in enumerate(KINDS)}
_CODE_KIND = {i: k for k, i in _KIND_CODE.items()}
_ISOLATED_BIT = 0x08
_FALLBACK_BIT = 0x10

MAGIC = b"LAGE"
FORMAT_VERSION = 1

_ROUNDS_BACK = {"last_action": 1, "last_round": 1, "last_2_rounds": 2, "last_3_rounds": 3}


@dataclass(frozen=True)
class SelectionStrategy:
    """Which span of a transcript is persisted, and under which encoding."""

    kind: str = "last_round"
    encoding: str = "full_trace"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InputError(f"unknown strategy kind {self.kind!r}")
        if self.encoding not in ENCODINGS:
            raise InputError(f"unknown encoding {self.encoding!r}")
        if self.kind in TEXT_KINDS and self.encoding != "full_trace":
            # text storage has no KV encoding; keep a single canonical form
            object.__setattr__(self, "encoding", "full_trace")

    @property
    def is_text(self) -> bool:
        return self.kind in TEXT_KINDS

    @property
    def name(self) -> str:
        """The report label: the kind, marked when the span was encoded alone."""
        return self.kind + ("/isolated" if self.encoding == "isolated" else "")


@dataclass
class AgentTranscript:
    """Ordered (user, assistant) message pairs of one task run."""

    turns: list[tuple[str, str]]
    final_action: Action = field(default_factory=Action)

    def __post_init__(self) -> None:
        if not self.turns:
            raise InputError("transcript must contain at least one turn")

    @property
    def iterations(self) -> int:
        return len(self.turns)

    @property
    def assistant_messages(self) -> list[str]:
        return [a for _, a in self.turns]


@dataclass(eq=False)
class LogEntry:
    """One stored task artifact: a KV segment or text span plus the text key
    it is retrieved by. ``entry_id`` is the store's runtime handle and is not
    part of the wire format."""

    task_text: str
    retrieval_key_text: str
    embedding: np.ndarray
    strategy: SelectionStrategy
    kv: KvSegment | None = None
    text_payload: str | None = None
    fallback_warning: bool = False
    entry_id: int | None = None

    @property
    def fingerprint(self) -> str:
        return self.kv.model_fingerprint if self.kv is not None else TEXT_FINGERPRINT

    @property
    def payload_nbytes(self) -> int:
        if self.kv is not None:
            return self.kv.payload_nbytes
        return len((self.text_payload or "").encode("utf-8"))

    def validate(self) -> None:
        if (self.kv is None) == (self.text_payload is None):
            raise InputError("entry must hold exactly one of KV or text payload")
        if self.strategy.is_text != (self.text_payload is not None):
            raise InputError("payload kind does not match strategy")
        if self.kv is not None:
            if self.kv.model_fingerprint == TEXT_FINGERPRINT:
                raise InputError("a KV payload cannot carry the text fingerprint")
            self.kv.validate()


def _select_span(messages: list[str], kind: str, end: int) -> tuple[int, int, bool]:
    """Token span [start, end) of the stored content within the newline-joined
    trace of ``messages``, ``end`` bytes long. With byte tokenization, byte
    offsets are token offsets, and each span is measured back from the end:
    the last r messages joined by newlines are the trace's tail. Returns
    (start, end, fallback) where fallback is True when a last_action strategy
    found no tag and fell back to the whole last round."""
    last = messages[-1]
    span = find_last_action_span(last) if kind == "last_action" else None
    if span is not None:
        last_start = end - len(last.encode("utf-8"))
        c0, c1 = span
        return (last_start + len(last[:c0].encode("utf-8")),
                last_start + len(last[:c1].encode("utf-8")), False)
    tail = "\n".join(messages[-_ROUNDS_BACK[kind]:]).encode("utf-8")
    return end - len(tail), end, kind == "last_action"


def encode_log(
    model: Model | None,
    transcript: AgentTranscript,
    strategy: SelectionStrategy,
    embedder,
    task_text: str = "",
) -> LogEntry:
    """Build a LogEntry from a finished transcript.

    The encoding context is the concatenation of all assistant messages
    (user prompts and retrieved documents are never encoded). The retrieval
    key is the last assistant message, except for all_rounds_text which is
    keyed by the whole trace. A text entry's payload is its key.
    """
    messages = transcript.assistant_messages
    key_text = "\n".join(messages) if strategy.kind == "all_rounds_text" else messages[-1]
    kv, fallback = None, False
    if not strategy.is_text:
        if model is None:
            raise InputError("KV strategies need a model to encode with")
        trace = "\n".join(messages).encode("utf-8")
        start, end, fallback = _select_span(messages, strategy.kind, len(trace))
        if strategy.encoding == "isolated":
            kv, _ = encode(model, list(trace[start:end]), 0)
        else:
            kv = encode(model, list(trace), 0)[0].slice(start, end)
    return LogEntry(
        task_text=task_text,
        retrieval_key_text=key_text,
        embedding=np.asarray(embedder.embed(key_text), dtype=np.float32),
        strategy=strategy,
        kv=kv,
        text_payload=key_text if strategy.is_text else None,
        fallback_warning=fallback,
    )


# -- wire format -------------------------------------------------------------
#
# header: magic "LAGE" | u16 version | fingerprint (32 bytes) | strategy byte |
#   payload_kind byte | u32 span_len | u32 layers | u32 kv_heads | u32 head_dim
# then: u32 positions[span_len] | u32 dim + f32 embedding[dim] |
# u32 len + task_text | u32 len + retrieval_key_text |
# payload (f32 [layers, 2, kv_heads, span_len, head_dim]: each layer's keys
# then its values; or UTF-8 text) |
# u32 CRC32 over all prior bytes. All integers little-endian.

_HEADER = struct.Struct("<4sH32sBBIIII")


def _strategy_byte(entry: LogEntry) -> int:
    b = _KIND_CODE[entry.strategy.kind]
    if entry.strategy.encoding == "isolated":
        b |= _ISOLATED_BIT
    if entry.fallback_warning:
        b |= _FALLBACK_BIT
    return b


def _header(entry: LogEntry) -> bytes:
    """The fixed header of an entry, as ``serialize`` writes it; an entry
    decodes only from exactly these bytes."""
    fingerprint = bytes.fromhex(entry.fingerprint)
    if len(fingerprint) != 32:
        raise InputError("fingerprint must be 32 bytes")
    kv = entry.kv
    dims = (0, 0, 0, 0) if kv is None else (
        kv.span_len, kv.num_layers, kv.num_kv_heads, kv.head_dim
    )
    return _HEADER.pack(MAGIC, FORMAT_VERSION, fingerprint, _strategy_byte(entry),
                        int(kv is None), *dims)


def serialize(entry: LogEntry) -> bytes:
    """Deterministic binary form of an entry."""
    entry.validate()
    kv = entry.kv
    out = bytearray(_header(entry))
    if kv is not None:
        out += np.asarray(kv.positions, dtype="<u4").tobytes()
    emb = np.asarray(entry.embedding, dtype="<f4")
    out += struct.pack("<I", emb.shape[0])
    out += emb.tobytes()
    for text in (entry.task_text, entry.retrieval_key_text):
        raw = text.encode("utf-8")
        out += struct.pack("<I", len(raw))
        out += raw
    if kv is None:
        out += entry.text_payload.encode("utf-8")
    else:
        out += np.stack((kv.keys, kv.values), axis=1, dtype="<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)
    return bytes(out)


class _Reader:
    def __init__(self, buf: memoryview, pos: int):
        self.buf = buf
        self.pos = pos

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise FormatError("truncated log entry")
        b = self.buf[self.pos : self.pos + n]
        self.pos += n
        return b

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self, count: int, dtype: str) -> np.ndarray:
        return np.frombuffer(self.take(4 * count), dtype=dtype)

    def text(self, n: int) -> str:
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"log entry text is not UTF-8: {exc.reason}") from None


def deserialize(buf) -> LogEntry:
    """Decode exactly one serialized entry from a bytes-like object; raises
    FormatError on structural damage or a header that ``serialize`` would
    not write for the decoded entry, and ChecksumError when the trailing CRC
    does not match.

    A KV payload is one [layers, 2, kv_heads, span, head_dim] block whose
    halves are the keys and values: read-only float32 views over ``buf``,
    which they keep alive, as does a KV entry's embedding. A text entry's
    embedding is a read-only copy, so its decoded text does not pin ``buf``."""
    view = memoryview(buf).toreadonly()
    # header, embedding dim and CRC
    if len(view) < _HEADER.size + 8:
        raise FormatError("buffer too short for a log entry")
    if view[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic")
    stored_crc = struct.unpack("<I", view[-4:])[0]
    if zlib.crc32(view[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ChecksumError("CRC mismatch")
    (_, version, fingerprint, strategy_byte, payload_kind,
     span_len, layers, kv_heads, head_dim) = _HEADER.unpack_from(view)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}")
    kind = _CODE_KIND.get(strategy_byte & 0x07)
    if kind is None:
        raise FormatError("unknown strategy code")
    strategy = SelectionStrategy(
        kind, "isolated" if strategy_byte & _ISOLATED_BIT else "full_trace"
    )
    if strategy.is_text != (payload_kind == 1):
        raise FormatError("log entry strategy contradicts its payload kind")
    fallback = bool(strategy_byte & _FALLBACK_BIT)
    r = _Reader(view[:-4], _HEADER.size)
    positions = r.array(span_len, "<u4").astype(np.int64)
    embedding = r.array(r.u32(), "<f4")
    task_text = r.text(r.u32())
    key_text = r.text(r.u32())
    kv = text_payload = None
    if payload_kind == 1:
        text_payload = r.text(len(r.buf) - r.pos)
        embedding = np.frombuffer(embedding.tobytes(), "<f4")  # a read-only copy
    elif payload_kind == 0:
        if fingerprint.hex() == TEXT_FINGERPRINT:
            raise FormatError("a KV payload carries the text fingerprint")
        shape = (layers, 2, kv_heads, span_len, head_dim)
        block = r.array(2 * layers * kv_heads * span_len * head_dim, "<f4").reshape(shape)
        if r.pos != len(r.buf):
            raise FormatError("trailing bytes after KV payload")
        kv = KvSegment(block[:, 0], block[:, 1], positions, fingerprint.hex())
    else:
        raise FormatError(f"unknown payload kind {payload_kind}")
    entry = LogEntry(
        task_text=task_text,
        retrieval_key_text=key_text,
        embedding=embedding,
        strategy=strategy,
        kv=kv,
        text_payload=text_payload,
        fallback_warning=fallback,
    )
    if _header(entry) != view[: _HEADER.size]:
        raise FormatError("log entry header does not match its content")
    return entry
