"""Append-only persistent collection of log entries with exact top-k cosine
retrieval over precomputed embeddings.

Layout of a store directory:
    entries.lag    concatenated serialized entries
    offsets.idx    little-endian u64 byte offset of each entry

Nothing else is read or written: the count, model fingerprint, embedding
dimension and strategy mix are derived from the entries on open.

Embeddings are L2-normalized once at put time; retrieval is a brute-force
dot product, which at the store sizes this system targets is both exact and
cheap. Ties are broken by insertion order (older first). The serving phase
opens read-only and never mutates the store.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .codec import LogEntry, deserialize, serialize
from .errors import FormatError, IncompatibilityError, InputError, NotFoundError

ENTRIES_NAME = "entries.lag"
OFFSETS_NAME = "offsets.idx"


@dataclass(frozen=True)
class RetrievalResult:
    entry_id: int
    similarity: float


def normalize(vec: np.ndarray) -> np.ndarray:
    """L2-normalize; the zero vector stays zero (cosine defined as 0).
    Vectors already at unit norm pass through bit-unchanged so that putting
    a normalized entry round-trips exactly."""
    vec = np.asarray(vec, dtype=np.float32)
    norm = float(np.linalg.norm(vec.astype(np.float64)))
    if norm == 0.0 or abs(norm - 1.0) < 1e-6:
        return vec.copy()
    return (vec.astype(np.float64) / norm).astype(np.float32)


class LogStore:
    """Open with mode "r" for serving (reads only) or "w" to create/append.

    Every entry, loaded on open or just put, enters through ``_admit``: it
    is decoded from the store's own bytes, so its embedding, keys and values
    are read-only views over them, and an entry whose fingerprint or
    embedding dimension differs from entry 0's is refused. Ids are the
    insertion ordinals (sequential from 0).
    """

    def __init__(self, path: str | Path, mode: str = "r"):
        if mode not in ("r", "w"):
            raise InputError(f"unknown store mode {mode!r}")
        self.path = Path(path)
        self._entries: list[LogEntry] = []
        self._matrix = None
        self._entries_fh = None

        if (self.path / ENTRIES_NAME).exists():
            self._load()
        elif mode == "r":
            raise InputError(f"no log store at {self.path}")
        else:
            self.path.mkdir(parents=True, exist_ok=True)
            (self.path / ENTRIES_NAME).touch()
            (self.path / OFFSETS_NAME).touch()
        if mode == "w":
            self._open_for_append()

    # -- persistence -----------------------------------------------------

    def _open_for_append(self) -> None:
        self._entries_fh = open(self.path / ENTRIES_NAME, "ab")
        self._offsets_fh = open(self.path / OFFSETS_NAME, "ab")

    def _load(self) -> None:
        raw_offsets = (self.path / OFFSETS_NAME).read_bytes()
        if len(raw_offsets) % 8:
            raise FormatError(f"torn index {self.path / OFFSETS_NAME}: {len(raw_offsets)} bytes")
        offsets = list(struct.unpack(f"<{len(raw_offsets) // 8}Q", raw_offsets))
        blob = memoryview((self.path / ENTRIES_NAME).read_bytes())
        bounds = offsets + [len(blob)]
        for i in range(len(offsets)):
            self._entries.append(self._admit(blob[bounds[i] : bounds[i + 1]]))
        self._rebuild_matrix()

    def _admit(self, blob) -> LogEntry:
        """Decode the bytes of the next entry and check them against entry 0:
        the one way, on open and on put, that an entry enters the store."""
        entry = deserialize(blob)
        entry.entry_id = i = len(self._entries)
        first = self._entries[0] if self._entries else entry
        if entry.fingerprint != first.fingerprint:
            raise IncompatibilityError(f"entry {i}: fingerprint differs from the store's")
        dim, want = len(entry.embedding), len(first.embedding)
        if dim != want:
            raise IncompatibilityError(f"entry {i}: embedding dim {dim} != store dim {want}")
        return entry

    def _rebuild_matrix(self) -> None:
        if self._entries:
            self._matrix = np.stack([e.embedding for e in self._entries]).astype(
                np.float64
            )
        else:
            self._matrix = None

    # -- operations --------------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._entries)

    @property
    def fingerprint(self) -> str | None:
        """Model fingerprint shared by every entry; None when empty."""
        return self._entries[0].fingerprint if self._entries else None

    @property
    def embedding_dim(self) -> int | None:
        """Embedding dimension shared by every entry; None when empty."""
        return None if self._matrix is None else self._matrix.shape[1]

    def put(self, entry: LogEntry) -> int:
        """Store an entry; returns its id. The embedding is L2-normalized
        before it is written, and the store serves the entry decoded from
        the written bytes, not the caller's arrays."""
        if self._entries_fh is None:
            raise InputError("store is not open for writing")
        blob = serialize(replace(entry, embedding=normalize(entry.embedding)))
        stored = self._admit(blob)
        offset = self._entries_fh.tell()
        index_size = self._offsets_fh.tell()
        try:
            self._entries_fh.write(blob)
            self._entries_fh.flush()
            self._offsets_fh.write(struct.pack("<Q", offset))
            self._offsets_fh.flush()
        except BaseException:
            self._roll_back(offset, index_size)
            raise
        self._entries.append(stored)
        self._rebuild_matrix()
        return stored.entry_id

    def _roll_back(self, entries_size: int, index_size: int) -> None:
        """Cut both files back to their sizes before a failed put and reopen
        them, so the store reads as it did before the put."""
        for name, fh, size in (
            (ENTRIES_NAME, self._entries_fh, entries_size),
            (OFFSETS_NAME, self._offsets_fh, index_size),
        ):
            try:
                fh.close()  # writes what the put left buffered, or drops it
            except OSError:
                pass
            os.truncate(self.path / name, size)
        self._open_for_append()

    def get(self, entry_id: int) -> LogEntry:
        if not (0 <= entry_id < len(self._entries)):
            raise NotFoundError(f"no entry with id {entry_id}")
        return self._entries[entry_id]

    def scan(self):
        """Entries in insertion order."""
        return iter(self._entries)

    def retrieve_topk(self, query_embedding, k: int) -> list[RetrievalResult]:
        """Exact top-k by cosine similarity; equal similarities rank older
        entries first."""
        if k < 0:
            raise InputError("k must be >= 0")
        q = np.asarray(query_embedding, dtype=np.float64)
        if self.embedding_dim is not None and q.shape[0] != self.embedding_dim:
            raise InputError(f"query dim {q.shape[0]} != store dim {self.embedding_dim}")
        if k == 0 or not self._entries:
            return []
        norm = float(np.linalg.norm(q))
        if norm > 0.0:
            q = q / norm
        sims = self._matrix @ q
        order = np.argsort(-sims, kind="stable")[:k]
        return [RetrievalResult(entry_id=int(i), similarity=float(sims[i])) for i in order]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._entries_fh is not None:
            self._entries_fh.close()
            self._offsets_fh.close()
            self._entries_fh = None

    def __enter__(self) -> "LogStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
