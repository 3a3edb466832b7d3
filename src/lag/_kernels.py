"""Hot numeric kernels in numpy: pairwise rotary rotation and causal
grouped-KV attention, query-tiled and split over KV heads.

Rotation works on whole rows in three contiguous steps instead of strided
even/odd slices: each (e, o) pair is swapped to (o, e) by rotating its 64
bits by 32, multiplied by the signed sin row (-s, +s), and added to x times
the cos row (c, c). This equals the strided e*c - o*s, o*c + e*s bit for
bit: adding -(o*s) is subtracting o*s, addition commutes, and separate
ufuncs round each product on its own (no fused multiply-add). A complex64
multiply would not be bit-identical.

Attention walks the new-token queries in tiles of ``TILE`` rows, after
FlashAttention's tiling (Dao et al., 2022, arXiv 2205.14135). A tile scores
only the keys its queries may see, ``[0, n_prefix + tile_end)``, and masks
only its diagonal block, so each row gets an exact softmax while the score
buffer stays O(TILE x keys) instead of O(t_new x keys). Everything is float32.

A call allocates that buffer once, sized for its largest tile, and every tile
writes its scores into a view of it. A new array per tile is a fresh memory
mapping of 2.3 to 2.8 MB at the kv_agent prefill shape (392 queries over
~1390 keys): about 7200 minor page faults per kv_agent op, against 0 with
one buffer. The output is bit-identical either way.

Query heads are independent, so a large call runs contiguous groups of KV
heads (each with its query heads) on separate threads, as FlashAttention-2
spreads work over heads (Dao, 2023, arXiv 2307.08691). numpy releases the
GIL inside its matmuls and ufunc loops, so the groups run on separate
cores. A call splits when it scores at least ``SPLIT_WORK`` elements,
``n_heads * t_new * (n_prefix + t_new)``, into ``min(n_kv_heads, usable
CPUs)`` groups: the caller runs the first and a pool of worker threads,
started by the first split call, runs the others. Each group writes its own
heads' blocks of the one score buffer and rows of the output, so memory
stays at one tile. With one usable CPU no call splits and no thread starts.
The output is bit-identical to the serial loop's whatever the grouping:
every head runs the same gemm and ufunc calls on the same shapes, since a
batched matmul makes one gemm per head and each softmax pass works row by
row along the last axis.

``SPLIT_WORK`` was measured on a 2-vCPU Xeon with one BLAS thread, timing
the serial and split paths in alternating calls. Handing a group to a
worker costs ~0.09 ms: a one-token call over 1400 keys took 0.03 ms serial
and 0.12 ms split. From ~100k to ~400k elements the split path was faster
in 66-96% of 300 pairs, and at the kv_agent prefill (392 queries over 1390
keys, 2.2M elements) in all of them, 4.8 -> 2.6 ms. At 200k the prefills
split, while kv_agent's draft checks (at most ~33 tokens over ~1400 keys)
and one-token passes stay serial.

One path serves every query count, a decode step's one query being one
unmasked tile: with prompt-lookup drafting a kv_agent op makes ~9.4 forward
passes of which ~2.4 are one-token passes, so a separate one-query branch
saved ~25 us of a ~37 ms op.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

TILE = 128
# a call that scores at least this many elements, n_heads * t_new *
# (n_prefix + t_new), runs its KV-head groups on the usable CPUs
SPLIT_WORK = 200_000

# added to a tile's diagonal block: query row r must not see key c > r
_FUTURE = np.triu(np.full((TILE, TILE), -np.inf, dtype=np.float32), k=1)

_HALF = np.uint64(32)


def rotate_pairs(
    x: np.ndarray, cos: np.ndarray, sin: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Rotate interleaved 2D subvectors (e, o) = (x[2i], x[2i+1]) of each
    head vector to (e*c - o*s, o*c + e*s).

    x and out: float32 [heads, seq, head_dim] with a contiguous last axis;
    out may be x itself. cos/sin: [seq, head_dim] rows as ``cos_sin_table``
    gives them, cos repeated per pair and sin signed (-s, +s) per pair.
    """
    u = x.view(np.uint64)
    swapped = u << _HALF  # (o, e): a 32-bit rotate, the same on either byte order
    swapped |= u >> _HALF
    swapped = swapped.view(np.float32)
    swapped *= sin
    out = np.multiply(x, cos, out=out)
    out += swapped
    return out


def causal_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, n_prefix: int
) -> np.ndarray:
    """Causal attention of new-token queries over [prefix + new] keys/values.

    q: [n_heads, t_new, d]; k, v: [n_kv_heads, n_prefix + t_new, d].
    Query t may attend to key positions 0 .. n_prefix + t. Query heads are
    mapped onto KV heads in contiguous groups.
    """
    n_heads, t_new, d = q.shape
    n_kv = k.shape[0]
    group = n_heads // n_kv
    qg = q.reshape(n_kv, group, t_new, d)
    out = np.empty((n_kv, group, t_new, d), dtype=np.float32)
    # one score buffer for every tile, a block per KV head: at most TILE rows
    # of its query heads over at most all keys
    block = group * min(TILE, t_new) * (n_prefix + t_new)
    buf = np.empty(n_kv * block, dtype=np.float32)
    n_groups = 1
    if n_heads * t_new * (n_prefix + t_new) >= SPLIT_WORK:
        n_groups = min(n_kv, _usable_cpus())
    if n_groups == 1:
        _attend(qg, k, v, n_prefix, out, buf)
        return out.reshape(n_heads, t_new, d)
    cuts = [n_kv * i // n_groups for i in range(n_groups + 1)]
    pool = _workers()
    rest = [
        pool.submit(
            _attend, qg[a:b], k[a:b], v[a:b], n_prefix, out[a:b], buf[a * block : b * block]
        )
        for a, b in zip(cuts[1:-1], cuts[2:])
    ]
    c = cuts[1]
    try:
        _attend(qg[:c], k[:c], v[:c], n_prefix, out[:c], buf[: c * block])
    finally:  # no group outlives the call, whichever fails
        for job in rest:
            job.result()  # re-raises a worker's exception as it was raised
    return out.reshape(n_heads, t_new, d)


def _attend(qg, k, v, n_prefix: int, out: np.ndarray, buf: np.ndarray) -> None:
    """The tile loop over a slice of KV heads. qg: [kv_heads, group, t_new,
    d] and out the same; k, v: [kv_heads, n_prefix + t_new, d]; buf: the
    heads' blocks of the flat score buffer."""
    n_kv, group, t_new, d = qg.shape
    # math.sqrt gives np.sqrt's float64 (both are the correctly rounded IEEE
    # square root) without converting d to an array: ~0.8 us less per call
    scale = np.float32(1.0) / np.float32(math.sqrt(d))
    for lo in range(0, t_new, TILE):
        hi = min(lo + TILE, t_new)
        n_keys = n_prefix + hi
        scores = buf[: n_kv * group * (hi - lo) * n_keys].reshape(n_kv, group, hi - lo, n_keys)
        np.matmul(qg[:, :, lo:hi], k[:, None, :n_keys].transpose(0, 1, 3, 2), out=scores)
        scores *= scale
        if hi - lo > 1:
            scores[..., n_prefix + lo:] += _FUTURE[: hi - lo, : hi - lo]
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= np.add.reduce(scores, axis=-1, keepdims=True)
        np.matmul(scores, v[:, None, :n_keys], out=out[:, :, lo:hi])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _workers():
    """The worker threads of split calls: one fewer than the usable CPUs,
    each started when a split call first finds none idle."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(1, _usable_cpus() - 1), "lag-attention")
        return _pool


def _forget_workers() -> None:
    # a forked child holds no thread of its parent's pool
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


_forget_workers()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def backend_name() -> str:
    return "numpy"
