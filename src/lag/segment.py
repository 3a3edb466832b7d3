"""KV segments, the per-layer key/value arrays stored, moved and injected,
and the KV cache a forward pass extends in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, IncompatibilityError, InputError, PositionError

FP32_BYTES = 4


@dataclass
class KvSegment:
    """Per-layer keys/values for a span of tokens plus the positions they
    were encoded at.

    keys[l] and values[l] have shape [num_kv_heads, span_len, head_dim]
    (float32). Keys carry the rotary rotation of their positions; values are
    rotation-free. Instances are treated as immutable; the arrays of one
    decoded from a store are read-only views, so a write raises.
    """

    keys: list[np.ndarray] = field(default_factory=list)
    values: list[np.ndarray] = field(default_factory=list)
    positions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    model_fingerprint: str = ""

    @property
    def num_layers(self) -> int:
        return len(self.keys)

    @property
    def span_len(self) -> int:
        return int(self.positions.shape[0])

    @property
    def num_kv_heads(self) -> int:
        return int(self.keys[0].shape[0]) if self.keys else 0

    @property
    def head_dim(self) -> int:
        return int(self.keys[0].shape[2]) if self.keys else 0

    @property
    def payload_nbytes(self) -> int:
        """span_len x layers x 2 x kv_heads x head_dim x 4 bytes."""
        return (
            self.span_len
            * self.num_layers
            * 2
            * self.num_kv_heads
            * self.head_dim
            * FP32_BYTES
        )

    def validate(self) -> None:
        if len(self.keys) != len(self.values):
            raise InputError("keys/values layer counts differ")
        span = self.span_len
        for l, (k, v) in enumerate(zip(self.keys, self.values)):
            if k.shape != v.shape:
                raise InputError(f"layer {l}: key/value shapes differ")
            if k.shape[1] != span:
                raise InputError(f"layer {l}: span {k.shape[1]} != positions {span}")
            if not (np.isfinite(k).all() and np.isfinite(v).all()):
                raise InputError(f"layer {l}: non-finite values")
        if span > 1 and not (np.diff(self.positions) > 0).all():
            raise PositionError("positions must be strictly increasing")

    def slice(self, start: int, stop: int) -> "KvSegment":
        """Sub-span [start, stop) as a copy; position metadata is preserved.

        It copies because a view would keep the whole source buffer alive:
        a log encoded from a full trace would pin that trace's entire KV
        inside the stored entry."""
        if not (0 <= start <= stop <= self.span_len):
            raise InputError(f"bad slice [{start}:{stop}] of span {self.span_len}")
        return KvSegment(
            keys=[k[:, start:stop, :].copy() for k in self.keys],
            values=[v[:, start:stop, :].copy() for v in self.values],
            positions=self.positions[start:stop].copy(),
            model_fingerprint=self.model_fingerprint,
        )

    @staticmethod
    def concat(segments: list["KvSegment"]) -> "KvSegment":
        """Concatenate spans layerwise, dropping empty ones. Unvalidated, so
        the positions need not increase (stored spans keep theirs): the
        model validates a prefix on entry."""
        segments = [s for s in segments if s.span_len > 0]
        if not segments:
            return KvSegment()
        first = segments[0]
        for s in segments[1:]:
            if s.model_fingerprint != first.model_fingerprint:
                raise IncompatibilityError("cannot concat segments of different models")
            if s.num_layers != first.num_layers:
                raise InputError("cannot concat segments with different layer counts")
        return KvSegment(
            keys=[
                np.concatenate([s.keys[l] for s in segments], axis=1)
                for l in range(first.num_layers)
            ],
            values=[
                np.concatenate([s.values[l] for s in segments], axis=1)
                for l in range(first.num_layers)
            ],
            positions=np.concatenate([s.positions for s in segments]),
            model_fingerprint=first.model_fingerprint,
        )

    def equals(self, other: "KvSegment") -> bool:
        """Exact equality of fingerprint, positions and every layer's keys
        and values, shapes included; a NaN never compares equal."""
        return (
            self.model_fingerprint == other.model_fingerprint
            and len(self.keys) == len(other.keys)
            and len(self.values) == len(other.values)
            and np.array_equal(self.positions, other.positions)
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.keys + self.values, other.keys + other.values)
            )
        )


class KvCache:
    """Per-layer key/value buffers preallocated to ``capacity`` slots and
    filled in place, after the preallocated KV blocks of vLLM/PagedAttention
    (Kwon et al., 2023, arXiv 2309.06180).

    The first ``span_len`` slots are live. A forward pass writes its new
    tokens after them with ``stage`` and makes them live with ``commit``.
    Live slots are never rewritten until ``truncate(n)`` frees the slots
    from ``n`` on: the next forward pass writes there, so a ``segment``
    (views of the live slots, not a copy) taken before a truncate is valid
    only up to ``n``. Positions increase by construction: a segment is
    validated on the way in, commits only append later positions and a
    truncate keeps a leading run, so checking a new start against
    ``last_position`` is O(1).
    """

    def __init__(
        self,
        num_layers: int,
        num_kv_heads: int,
        head_dim: int,
        capacity: int,
        model_fingerprint: str,
    ):
        shape = (num_kv_heads, capacity, head_dim)
        self._keys = [np.empty(shape, dtype=np.float32) for _ in range(num_layers)]
        self._values = [np.empty(shape, dtype=np.float32) for _ in range(num_layers)]
        self._positions = np.empty(capacity, dtype=np.int64)
        self.capacity = capacity
        self.model_fingerprint = model_fingerprint
        self.span_len = 0

    @classmethod
    def from_segment(cls, segment: KvSegment, capacity: int) -> "KvCache":
        """A validated copy of ``segment`` in a new cache."""
        segment.validate()
        n = segment.span_len
        if n > capacity:
            raise CapacityError(f"span {n} exceeds cache capacity {capacity}")
        cache = cls(
            segment.num_layers, segment.num_kv_heads, segment.head_dim, capacity,
            segment.model_fingerprint,
        )
        for l in range(segment.num_layers):
            cache._keys[l][:, :n] = segment.keys[l]
            cache._values[l][:, :n] = segment.values[l]
        cache._positions[:n] = segment.positions
        cache.span_len = n
        return cache

    @property
    def num_layers(self) -> int:
        return len(self._keys)

    @property
    def num_kv_heads(self) -> int:
        return int(self._keys[0].shape[0])

    @property
    def head_dim(self) -> int:
        return int(self._keys[0].shape[2])

    @property
    def last_position(self) -> int:
        """Position of the last live token, or -1 when the cache is empty."""
        return int(self._positions[self.span_len - 1]) if self.span_len else -1

    def stage(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write ``layer``'s new keys/values [kv_heads, t, head_dim] after the
        live span; returns views of the live span plus them. They become
        live on ``commit``."""
        n, t = self.span_len, keys.shape[1]
        if n + t > self.capacity:
            raise CapacityError(f"{n} + {t} tokens exceed cache capacity {self.capacity}")
        k, v = self._keys[layer], self._values[layer]
        k[:, n : n + t] = keys
        v[:, n : n + t] = values
        return k[:, : n + t], v[:, : n + t]

    def commit(self, positions: np.ndarray) -> None:
        """Make the staged tokens live at ``positions``, which the caller has
        checked lie after ``last_position`` and increase."""
        n, t = self.span_len, positions.shape[0]
        self._positions[n : n + t] = positions
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
        return KvSegment(
            keys=[k[:, :n] for k in self._keys],
            values=[v[:, :n] for v in self._values],
            positions=self._positions[:n],
            model_fingerprint=self.model_fingerprint,
        )
