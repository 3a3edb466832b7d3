"""KV segments, the key/value arrays stored, moved and injected, and the KV
cache a forward pass extends in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, IncompatibilityError, InputError, PositionError

FP32_BYTES = 4


@dataclass
class KvSegment:
    """Keys and values for a span of tokens plus the positions they were
    encoded at.

    keys and values are float32 [num_layers, num_kv_heads, span_len,
    head_dim] arrays, the two halves of the [layers, 2, kv_heads, span,
    head_dim] block the wire format stores. Keys carry the rotary rotation
    of their positions; values are rotation-free. Instances are treated as
    immutable and are checked by ``validate``, not on construction; the
    arrays of one decoded from a store are read-only views, so a write raises.
    """

    keys: np.ndarray = field(default_factory=lambda: np.zeros((0,) * 4, dtype=np.float32))
    values: np.ndarray = field(default_factory=lambda: np.zeros((0,) * 4, dtype=np.float32))
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    model_fingerprint: str = ""

    @property
    def num_layers(self) -> int:
        return self.keys.shape[0]

    @property
    def span_len(self) -> int:
        return int(self.positions.shape[0])

    @property
    def num_kv_heads(self) -> int:
        return self.keys.shape[1]

    @property
    def head_dim(self) -> int:
        return self.keys.shape[3]

    @property
    def payload_nbytes(self) -> int:
        """span_len x layers x 2 x kv_heads x head_dim x 4 bytes."""
        return 2 * self.keys.size * FP32_BYTES

    def validate(self) -> None:
        span, shape = self.span_len, self.keys.shape
        if len(shape) != 4 or shape[2] != span or self.values.shape != shape:
            raise InputError(f"keys {shape} and values {self.values.shape} are not "
                             f"[layers, kv_heads, {span}, head_dim]")
        if not (np.isfinite(self.keys).all() and np.isfinite(self.values).all()):
            raise InputError("non-finite keys or values")
        if span > 1 and not (np.diff(self.positions) > 0).all():
            raise PositionError("positions must be strictly increasing")

    def view(self, start: int, stop: int) -> "KvSegment":
        """Sub-span [start, stop) as views of this segment's arrays: no copy,
        so a write to it writes through, and it keeps the whole buffer alive."""
        if not (0 <= start <= stop <= self.span_len):
            raise InputError(f"bad sub-span [{start}:{stop}] of span {self.span_len}")
        return KvSegment(
            keys=self.keys[:, :, start:stop],
            values=self.values[:, :, start:stop],
            positions=self.positions[start:stop],
            model_fingerprint=self.model_fingerprint,
        )

    def slice(self, start: int, stop: int) -> "KvSegment":
        """Sub-span [start, stop) as a copy; position metadata is preserved.

        It copies because a view would keep the whole source buffer alive:
        a log encoded from a full trace would pin that trace's entire KV
        inside the stored entry."""
        part = self.view(start, stop)
        return KvSegment(
            keys=part.keys.copy(),
            values=part.values.copy(),
            positions=part.positions.copy(),
            model_fingerprint=self.model_fingerprint,
        )

    @staticmethod
    def concat(segments: list["KvSegment"]) -> "KvSegment":
        """Copy the non-empty spans, in order, into one [layers, 2, kv_heads,
        total, head_dim] buffer whose halves are the keys and values (4x
        faster than np.concatenate of the store's non-contiguous views).
        Unvalidated, so the positions need not increase (stored spans keep
        theirs): the model validates a prefix on entry."""
        segments = [s for s in segments if s.span_len > 0]
        if not segments:
            return KvSegment()
        first = segments[0]
        layers, heads, _, dim = first.keys.shape
        total = sum(s.span_len for s in segments)
        kv = np.empty((layers, 2, heads, total, dim), dtype=np.float32)
        at = 0
        for s in segments:
            if s.model_fingerprint != first.model_fingerprint:
                raise IncompatibilityError("cannot concat segments of different models")
            shape = (layers, heads, s.span_len, dim)
            if s.keys.shape != shape or s.values.shape != shape:
                raise InputError(f"cannot concat a span of shape {s.keys.shape} to {shape}")
            kv[:, 0, :, at : at + s.span_len] = s.keys
            kv[:, 1, :, at : at + s.span_len] = s.values
            at += s.span_len
        return KvSegment(
            keys=kv[:, 0],
            values=kv[:, 1],
            positions=np.concatenate([s.positions for s in segments]),
            model_fingerprint=first.model_fingerprint,
        )

    def equals(self, other: "KvSegment") -> bool:
        """Exact equality of fingerprint, positions, keys and values, shapes
        included; a NaN never compares equal."""
        return (
            self.model_fingerprint == other.model_fingerprint
            and np.array_equal(self.positions, other.positions)
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.values, other.values)
        )


class KvCache:
    """One KvSegment of ``capacity`` slots, ``slots``, filled in place, after
    the preallocated KV blocks of vLLM/PagedAttention (Kwon et al., 2023,
    arXiv 2309.06180); its fingerprint and geometry are the cache's.

    The first ``span_len`` slots are live. The slots are written only by
    ``stage``, after the live slots, and made live only by ``commit``: a
    forward pass writes its new tokens so, and ``Model.prefix_cache`` a
    prefix. Live slots are never rewritten until ``truncate(n)`` frees the
    slots from ``n`` on: the next forward pass writes there, so a
    ``segment`` (views of the live slots, not a copy) taken before a
    truncate is valid only up to ``n``. Positions increase by construction:
    a prefix is validated on the way in, commits only append later
    positions and a truncate keeps a leading run, so checking a new start
    against ``last_position`` is O(1).
    """

    def __init__(
        self,
        num_layers: int,
        num_kv_heads: int,
        head_dim: int,
        capacity: int,
        model_fingerprint: str,
    ):
        shape = (num_layers, num_kv_heads, capacity, head_dim)
        self.slots = KvSegment(
            keys=np.empty(shape, dtype=np.float32),
            values=np.empty(shape, dtype=np.float32),
            positions=np.empty(capacity, dtype=np.int64),
            model_fingerprint=model_fingerprint,
        )
        self.span_len = 0

    @property
    def capacity(self) -> int:
        return self.slots.span_len

    @property
    def last_position(self) -> int:
        """Position of the last live token, or -1 when the cache is empty."""
        return int(self.slots.positions[self.span_len - 1]) if self.span_len else -1

    def stage(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write ``layer``'s new keys/values [kv_heads, t, head_dim] after the
        live span; returns views of the live span plus them. They become
        live on ``commit``."""
        n, t = self.span_len, keys.shape[1]
        if n + t > self.capacity:
            raise CapacityError(f"{n} + {t} tokens exceed cache capacity {self.capacity}")
        slots = self.slots
        slots.keys[layer, :, n : n + t] = keys
        slots.values[layer, :, n : n + t] = values
        return slots.keys[layer, :, : n + t], slots.values[layer, :, : n + t]

    def commit(self, positions: np.ndarray) -> None:
        """Make the staged tokens live at ``positions``, which the caller has
        checked lie after ``last_position`` and increase."""
        n, t = self.span_len, positions.shape[0]
        self.slots.positions[n : n + t] = positions
        self.span_len = n + t

    def truncate(self, n: int) -> None:
        """Keep the first ``n`` live slots; the next forward pass writes from
        slot ``n``, over the views of the dropped slots."""
        if not 0 <= n <= self.span_len:
            raise InputError(f"cannot truncate a span of {self.span_len} to {n}")
        self.span_len = n

    def segment(self, stop: int | None = None) -> KvSegment:
        """The first ``stop`` live slots (all of them by default) as a
        KvSegment of views; no copy is made, so it stays valid until the
        cache is truncated below ``stop``."""
        n = self.span_len if stop is None else stop
        if not 0 <= n <= self.span_len:
            raise InputError(f"no segment [:{n}] of a span of {self.span_len}")
        return self.slots.view(0, n)
