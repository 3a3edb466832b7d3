import struct
import tracemalloc

import numpy as np
import pytest

from lag.cli import main
from lag.codec import LogEntry, SelectionStrategy, encode_log, serialize
from lag.errors import FormatError, IncompatibilityError, InputError, NotFoundError
from lag.store import ENTRIES_NAME, OFFSETS_NAME, LogStore, normalize
from tests.conftest import FailingFile
from tests.oracles import brute_force_topk
from tests.test_codec import THREE_ROUNDS, _random_entry, _sized_entry


def text_entry(embedding, tag="x"):
    return LogEntry(
        task_text=f"task {tag}",
        retrieval_key_text=f"key {tag}",
        embedding=np.asarray(embedding, dtype=np.float32),
        strategy=SelectionStrategy("last_round_text"),
        text_payload=f"payload {tag}",
    )


def test_put_into_empty_store_adopts_fingerprint(tmp_path, small_model, embedder):
    store = LogStore(tmp_path / "s", mode="w")
    entry = encode_log(small_model, THREE_ROUNDS, SelectionStrategy("last_round"), embedder)
    entry_id = store.put(entry)
    assert entry_id == 0
    assert store.count == 1
    assert store.fingerprint == small_model.fingerprint
    assert store.embedding_dim == embedder.dimension
    store.close()


@pytest.mark.parametrize("reopen", [False, True], ids=["kept_open", "reopened"])
def test_put_wrong_dimension_rejected(tmp_path, reopen):
    store = LogStore(tmp_path / "s", mode="w")
    store.put(text_entry(normalize(np.ones(4, dtype=np.float32))))
    if reopen:
        store.close()
        store = LogStore(tmp_path / "s", mode="w")
    with pytest.raises(IncompatibilityError):
        store.put(text_entry(normalize(np.ones(5, dtype=np.float32))))
    store.close()


@pytest.mark.parametrize("reopen", [False, True], ids=["kept_open", "reopened"])
def test_put_wrong_fingerprint_rejected(tmp_path, small_model, embedder, reopen):
    store = LogStore(tmp_path / "s", mode="w")
    store.put(encode_log(small_model, THREE_ROUNDS, SelectionStrategy("last_round"), embedder))
    if reopen:
        store.close()
        store = LogStore(tmp_path / "s", mode="w")
    with pytest.raises(IncompatibilityError):
        store.put(text_entry(np.ones(embedder.dimension, dtype=np.float32)))
    store.close()


def test_seventy_puts(tmp_path, rng):
    store = LogStore(tmp_path / "s", mode="w")
    for i in range(70):
        store.put(text_entry(normalize(rng.standard_normal(8).astype(np.float32)), tag=str(i)))
    assert store.count == 70
    store.close()


def test_get_put_round_trip_bit_exact(tmp_path, rng):
    store = LogStore(tmp_path / "s", mode="w")
    entry = text_entry(normalize(rng.standard_normal(8).astype(np.float32)))
    entry_id = store.put(entry)
    back = store.get(entry_id)
    assert serialize(back) == serialize(entry)
    assert np.array_equal(back.embedding, entry.embedding)
    store.close()


def test_get_unknown_id(tmp_path):
    store = LogStore(tmp_path / "s", mode="w")
    with pytest.raises(NotFoundError):
        store.get(0)
    store.close()


def test_scan_in_insertion_order(tmp_path, rng):
    store = LogStore(tmp_path / "s", mode="w")
    for i in range(3):
        store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32)), tag=str(i)))
    assert [e.task_text for e in store.scan()] == ["task 0", "task 1", "task 2"]
    assert store.count == 3
    store.close()


def test_retrieve_k0_is_empty(tmp_path, rng):
    store = LogStore(tmp_path / "s", mode="w")
    store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32))))
    assert store.retrieve_topk(np.ones(4, dtype=np.float32), 0) == []
    store.close()


def test_retrieve_analytic_example(tmp_path):
    store = LogStore(tmp_path / "s", mode="w")
    for tag, vec in (("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("c", [0.6, 0.8])):
        store.put(text_entry(vec, tag=tag))
    results = store.retrieve_topk(np.array([1.0, 0.0], dtype=np.float32), 3)
    assert [r.entry_id for r in results] == [0, 2, 1]
    assert np.allclose([r.similarity for r in results], [1.0, 0.6, 0.0], atol=1e-6)
    store.close()


def test_retrieve_dimension_mismatch(tmp_path, rng):
    store = LogStore(tmp_path / "s", mode="w")
    store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32))))
    with pytest.raises(InputError):
        store.retrieve_topk(np.ones(5, dtype=np.float32), 1)
    store.close()


def test_retrieve_zero_query_gives_zero_similarity(tmp_path, rng):
    store = LogStore(tmp_path / "s", mode="w")
    store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32))))
    results = store.retrieve_topk(np.zeros(4, dtype=np.float32), 1)
    assert results[0].similarity == 0.0
    store.close()


def test_retrieval_matches_brute_force_with_ties(tmp_path, rng):
    store = LogStore(tmp_path / "s", mode="w")
    dim, n = 12, 200
    for i in range(n):
        vec = normalize(rng.standard_normal(dim).astype(np.float32))
        if i % 7 == 0 and i:
            vec = store.get(0).embedding.copy()  # forced exact ties
        store.put(text_entry(vec, tag=str(i)))
    embeddings = [store.get(i).embedding for i in range(n)]
    for _ in range(25):
        q = rng.standard_normal(dim)
        got = [r.entry_id for r in store.retrieve_topk(q, 10)]
        assert got == brute_force_topk(embeddings, q, 10)
        sims = [r.similarity for r in store.retrieve_topk(q, n)]
        assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for s in sims)
    store.close()


def test_close_reopen_preserves_everything(tmp_path, rng):
    path = tmp_path / "s"
    store = LogStore(path, mode="w")
    entries = []
    for i in range(40):
        entry = _random_entry(rng, kv=True)
        entry.kv.model_fingerprint = "ab" * 32  # one model per store
        entry.embedding = normalize(rng.standard_normal(6).astype(np.float32))
        store.put(entry)
        entries.append(entry)
    store.close()

    reopened = LogStore(path, mode="r")
    assert reopened.count == 40
    for i, entry in enumerate(entries):
        assert serialize(reopened.get(i)) == serialize(entry)
    assert [r.entry_id for r in reopened.retrieve_topk(entries[3].embedding, 1)]
    reopened.close()


def test_append_after_reopen(tmp_path, rng):
    path = tmp_path / "s"
    with LogStore(path, mode="w") as store:
        store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32)), "0"))
    with LogStore(path, mode="w") as store:
        store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32)), "1"))
        assert store.count == 2
    with LogStore(path, mode="r") as store:
        assert [e.task_text for e in store.scan()] == ["task 0", "task 1"]


@pytest.mark.parametrize("target", ["reader", "closed_writer"])
def test_reader_mode_cannot_put(tmp_path, rng, target):
    path = tmp_path / "s"
    writer = LogStore(path, mode="w")
    writer.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32))))
    writer.close()
    files = [path / ENTRIES_NAME, path / OFFSETS_NAME]
    before = [f.read_bytes() for f in files]
    store = LogStore(path, mode="r") if target == "reader" else writer
    with pytest.raises(InputError, match="not open for writing"):
        store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32))))
    store.close()
    assert [f.read_bytes() for f in files] == before


def test_missing_store_raises(tmp_path):
    with pytest.raises(InputError):
        LogStore(tmp_path / "nope", mode="r")


def _three_entry_store(path, rng):
    with LogStore(path, mode="w") as store:
        for i in range(3):
            store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32)), str(i)))


def _assert_reopens_whole(path, rng):
    """All three entries load in both modes, and a "w" open appends as id 3."""
    with LogStore(path, mode="r") as store:
        assert store.count == 3
        assert [e.task_text for e in store.scan()] == ["task 0", "task 1", "task 2"]
        assert store.embedding_dim == 4
    with LogStore(path, mode="w") as store:
        assert store.count == 3
        assert store.put(text_entry(normalize(rng.standard_normal(4).astype(np.float32)), "3")) == 3
    with LogStore(path, mode="r") as store:
        assert [e.task_text for e in store.scan()] == [f"task {i}" for i in range(4)]


def test_store_of_two_files_reopens_whole(tmp_path, rng):
    path = tmp_path / "s"
    _three_entry_store(path, rng)
    assert {p.name for p in path.iterdir()} == {"entries.lag", "offsets.idx"}
    _assert_reopens_whole(path, rng)


def test_stale_manifest_is_ignored(tmp_path, rng):
    path = tmp_path / "s"
    _three_entry_store(path, rng)
    stale = '{"count": 1, "embedding_dim": 9, "strategy_histogram": {"last_action": 5}}\n'
    (path / "manifest.json").write_text(stale)
    _assert_reopens_whole(path, rng)
    assert (path / "manifest.json").read_text() == stale


def test_empty_store_reopens_empty(tmp_path):
    LogStore(tmp_path / "s", mode="w").close()
    for mode in ("r", "w"):
        with LogStore(tmp_path / "s", mode=mode) as store:
            assert store.count == 0
            assert store.fingerprint is None
            assert store.embedding_dim is None
            assert store.retrieve_topk(np.ones(3, dtype=np.float32), 3) == []


def test_torn_offsets_index_is_format_error(tmp_path, rng):
    path = tmp_path / "s"
    _three_entry_store(path, rng)
    with open(path / "offsets.idx", "ab") as fh:
        fh.write(b"\0\0\0")
    with pytest.raises(FormatError, match="offsets.idx"):
        LogStore(path)
    assert main(["store", "inspect", "--store", str(path)]) == 3


def test_reopened_store_holds_its_bytes_once(tmp_path, rng):
    # 15 KV entries of 133 tokens, 4 layers, 2 KV heads, head_dim 16: ~2 MB
    path = tmp_path / "s"
    with LogStore(path, mode="w") as store:
        for _ in range(15):
            store.put(_sized_entry(rng, 133, 4, 2, 16)[1])
    size = (path / "entries.lag").stat().st_size
    tracemalloc.start()
    try:
        store = LogStore(path, "r")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * size
    entry = store.get(14)
    for array in (entry.kv.keys, entry.kv.values, entry.embedding):
        assert not array.flags.writeable


def test_reopened_text_store_holds_no_serialized_bytes(tmp_path, rng):
    # 200 text entries of ~12 KB of text: an entry keeps its decoded text
    # and a copy of its embedding, and no view that pins the file's bytes
    path = tmp_path / "s"
    text = "a word or two " * 300
    with LogStore(path, mode="w") as store:
        for i in range(200):
            embedding = normalize(rng.standard_normal(16).astype(np.float32))
            store.put(LogEntry(f"{i} {text}", f"{i} {text}", embedding,
                               SelectionStrategy("last_round_text"), text_payload=text))
        assert not store.get(199).embedding.flags.writeable
    size = (path / "entries.lag").stat().st_size
    tracemalloc.start()
    try:
        store = LogStore(path, "r")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1.3 * size
    assert not store.get(0).embedding.flags.writeable


def test_put_entry_is_served_from_the_stored_bytes(tmp_path, rng):
    # the store serves what it wrote: a later write to the caller's arrays
    # does not reach it, and its arrays are read-only like a reopened entry's
    path = tmp_path / "s"
    entry = _random_entry(rng, kv=True)
    with LogStore(path, mode="w") as store:
        store.put(entry)
        served = store.get(0)
        key = served.kv.keys[0][0, 0, 0]
        entry.kv.keys[0][0, 0, 0] = 99.0
        entry.embedding[0] = 99.0
        assert store.get(0).kv.keys[0][0, 0, 0] == key != 99.0
        assert store.get(0).embedding[0] != 99.0
        for array in (served.kv.keys, served.kv.values, served.embedding):
            assert not array.flags.writeable
    with LogStore(path, mode="r") as reopened:
        assert serialize(reopened.get(0)) == serialize(served)


def _append_raw(path, entry):
    """Append an entry's bytes and offset without going through put."""
    offset = (path / "entries.lag").stat().st_size
    with open(path / "entries.lag", "ab") as fh:
        fh.write(serialize(entry))
    with open(path / "offsets.idx", "ab") as fh:
        fh.write(struct.pack("<Q", offset))


@pytest.mark.parametrize("differs", ["dimension", "fingerprint"])
def test_mixed_store_is_refused_on_open(tmp_path, rng, differs):
    path = tmp_path / "s"
    _three_entry_store(path, rng)
    if differs == "dimension":
        odd = text_entry(normalize(rng.standard_normal(5).astype(np.float32)), "3")
    else:
        odd = _random_entry(rng, kv=True)
        odd.embedding = normalize(rng.standard_normal(4).astype(np.float32))
    _append_raw(path, odd)
    for mode in ("r", "w"):
        with pytest.raises(IncompatibilityError, match="entry 3"):
            LogStore(path, mode)
    assert main(["store", "inspect", "--store", str(path)]) == 5


def _store_bytes(path):
    return (path / ENTRIES_NAME).read_bytes(), (path / OFFSETS_NAME).read_bytes()


@pytest.mark.parametrize("fails", ["write", "flush"])
@pytest.mark.parametrize("handle", ["_entries_fh", "_offsets_fh"])
def test_a_failed_put_leaves_the_store_as_it_was(tmp_path, rng, handle, fails):
    entries = [
        text_entry(normalize(rng.standard_normal(8).astype(np.float32)), tag=str(i))
        for i in range(4)
    ]
    with LogStore(tmp_path / "clean", mode="w") as clean:
        for entry in (entries[0], entries[1], entries[3]):
            clean.put(entry)

    store = LogStore(tmp_path / "s", mode="w")
    store.put(entries[0])
    store.put(entries[1])
    before = _store_bytes(tmp_path / "s")
    setattr(store, handle, FailingFile(getattr(store, handle), fails))
    with pytest.raises(OSError):
        store.put(entries[2])
    assert _store_bytes(tmp_path / "s") == before
    assert store.count == 2
    assert [e.task_text for e in LogStore(tmp_path / "s").scan()] == ["task 0", "task 1"]

    assert store.put(entries[3]) == 2  # the store stays open for writing
    store.close()
    assert _store_bytes(tmp_path / "s") == _store_bytes(tmp_path / "clean")
