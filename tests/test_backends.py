import hashlib
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

import lag.backends
import lag.model
import lag.remote
from lag.backends import (
    CosineDocRetriever,
    HashedBagOfWordsEmbedder,
    ReferenceModelGenerator,
    ScriptedGenerator,
)
from lag.errors import BackendError, InputError
from lag.model import encode, forward_with_prefix
from lag.remote import HttpGeneratorBackend
from lag.segment import KvSegment
from lag.store import normalize


class _Handler(BaseHTTPRequestHandler):
    requests: list[dict] = []
    # one entry per request to fail, in order: an HTTP status to answer
    # with, or None to close the connection without a response
    failures: list[int | None] = []
    reply = None  # a JSON body to answer with in place of the echo

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        _Handler.requests.append(body)
        if _Handler.failures:
            status = _Handler.failures.pop(0)
            if status is None:
                self.close_connection = True
                return
            self.send_response(status)
            self.end_headers()
            return
        echo = {"text": f"echo: {body['messages'][-1]['content'][:20]}"}
        reply = json.dumps(echo if _Handler.reply is None else _Handler.reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll interval, so shutdown() waits 10 ms, not 0.5 s
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    _Handler.requests = []
    _Handler.failures = []
    _Handler.reply = None
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    server.server_close()


def test_http_wire_contract(http_server):
    backend = HttpGeneratorBackend(http_server)
    text = backend.generate([{"role": "user", "content": "hello wire"}])
    assert text == "echo: hello wire"
    sent = _Handler.requests[-1]
    assert sent == {
        "messages": [{"role": "user", "content": "hello wire"}],
        "max_tokens": 512,
        "temperature": 0,
    }


def test_http_retries_then_succeeds(http_server):
    _Handler.failures = [500]
    backend = HttpGeneratorBackend(http_server, retries=2)
    assert backend.generate([{"role": "user", "content": "retry me"}]).startswith("echo")


@pytest.mark.parametrize("status", [503, 429])
def test_http_retries_unavailable_and_throttled(http_server, status):
    _Handler.failures = [status]
    backend = HttpGeneratorBackend(http_server, retries=2)
    assert backend.generate([{"role": "user", "content": "retry me"}]).startswith("echo")
    assert len(_Handler.requests) == 2


def test_http_client_error_is_not_retried(http_server):
    _Handler.failures = [400] * 3
    backend = HttpGeneratorBackend(http_server, retries=2)
    with pytest.raises(BackendError):
        backend.generate([{"role": "user", "content": "bad request"}])
    assert len(_Handler.requests) == 1


def test_http_dropped_connection_is_retried(http_server):
    _Handler.failures = [None] * 3
    backend = HttpGeneratorBackend(http_server, retries=2)
    with pytest.raises(BackendError):
        backend.generate([{"role": "user", "content": "dropped"}])
    assert len(_Handler.requests) == 3


@pytest.mark.parametrize("retries,delays", [(3, [0.05, 0.1, 0.2]), (2, [0.05, 0.1])])
def test_http_backoff_doubles_and_skips_the_last_wait(http_server, monkeypatch, retries, delays):
    slept = []
    monkeypatch.setattr(lag.remote.time, "sleep", slept.append)
    _Handler.failures = [503] * 3
    backend = HttpGeneratorBackend(http_server, retries=retries)
    if retries == 3:
        assert backend.generate([{"role": "user", "content": "busy"}]).startswith("echo")
    else:
        with pytest.raises(BackendError):
            backend.generate([{"role": "user", "content": "busy"}])
    assert slept == delays  # none after the final failure


def test_http_backoff_is_capped(http_server, monkeypatch):
    slept = []
    monkeypatch.setattr(lag.remote.time, "sleep", slept.append)
    _Handler.failures = [None] * 8
    backend = HttpGeneratorBackend(http_server, retries=7)
    with pytest.raises(BackendError):
        backend.generate([{"role": "user", "content": "dropped"}])
    assert slept == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


@pytest.mark.parametrize(
    "reply", [5, ["text"], {"text": None}, {"text": "\ud800"}],
    ids=["number", "list", "text-not-str", "text-not-unicode"],  # sent as a \ud800 escape
)
def test_http_reply_without_a_text_string_fails_at_once(http_server, reply):
    _Handler.reply = reply
    backend = HttpGeneratorBackend(http_server, retries=2)
    with pytest.raises(BackendError):
        backend.generate([{"role": "user", "content": "malformed"}])
    assert len(_Handler.requests) == 1


def test_http_unreachable_is_backend_error():
    backend = HttpGeneratorBackend("http://127.0.0.1:1/generate", timeout=0.2, retries=0)
    with pytest.raises(BackendError):
        backend.generate([{"role": "user", "content": "x"}])


def test_http_rejects_kv_prefix(http_server, small_model):
    seg, _ = encode(small_model, [1, 2], 0)
    backend = HttpGeneratorBackend(http_server)
    assert backend.accepts_kv_prefix is False
    with pytest.raises(BackendError):
        backend.generate([{"role": "user", "content": "x"}], kv_prefix=seg)


def test_embedder_is_deterministic_and_normalized():
    embedder = HashedBagOfWordsEmbedder(dimension=32, seed=7)
    a = embedder.embed("The quick brown fox")
    b = embedder.embed("The quick brown fox")
    assert np.array_equal(a, b)
    assert a.shape == (32,)
    assert np.isclose(np.linalg.norm(a), 1.0, atol=1e-6)
    assert embedder.embed("") @ a == 0.0  # empty text embeds to zero


def test_embedder_is_order_insensitive():
    embedder = HashedBagOfWordsEmbedder(dimension=32, seed=7)
    assert np.allclose(
        embedder.embed("alpha beta gamma"), embedder.embed("gamma ALPHA beta"), atol=1e-7
    )


def test_embedder_seed_zero_vectors_are_unchanged():
    # stores hold embeddings made under seed 0, so its vectors must not move
    vec = HashedBagOfWordsEmbedder().embed("The capital of France is Paris, 42 times over.")
    assert hashlib.sha256(vec.tobytes()).hexdigest() == (
        "4220cdbee1116db8a2169fcfd507c911f553fa5e4b14dd01bc26e130fb901450"
    )


def longhand_embedding(text, dimension, seed):
    """The per-token loop: +1 or -1 per token into its hashed bucket."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        digest = hashlib.blake2b(token.encode(), digest_size=8, salt=str(seed).encode())
        h = int.from_bytes(digest.digest(), "little")
        vec[h % dimension] += 1.0 if h >> 63 else -1.0
    return normalize(vec.astype(np.float32))


def random_texts(rng, n, vocabulary):
    words = ["".join(rng.choice(list("aBc1z_é "), rng.integers(1, 5))) for _ in range(vocabulary)]
    return [" ".join(rng.choice(words, rng.integers(0, 80))) + ", " + str(i) for i in range(n)]


@pytest.mark.parametrize("dimension, seed", [(1, 0), (7, 3), (64, 0), (256, 0)])
def test_embedder_memo_equals_the_per_token_loop(dimension, seed):
    rng = np.random.default_rng(dimension)
    embedder = HashedBagOfWordsEmbedder(dimension=dimension, seed=seed)
    for text in random_texts(rng, 200, 60) * 2:  # a cold memo, then a warm one
        assert np.array_equal(embedder.embed(text), longhand_embedding(text, dimension, seed))


def test_embedder_memo_is_capped(monkeypatch):
    monkeypatch.setattr(lag.backends, "MEMO_TOKENS", 16)
    hashed = []
    blake2b = hashlib.blake2b
    monkeypatch.setattr(
        hashlib, "blake2b", lambda data, **kw: hashed.append(data) or blake2b(data, **kw))
    embedder = HashedBagOfWordsEmbedder(dimension=32, seed=5)
    rng = np.random.default_rng(0)
    for text in random_texts(rng, 100, 200):  # up to 80 distinct tokens a text
        assert np.array_equal(embedder.embed(text), longhand_embedding(text, 32, 5))
        assert len(embedder._codes) <= 16
    hashed.clear()
    embedder.embed("one two two three one")
    assert len(hashed) == 3  # each distinct token hashed once
    embedder.embed("three two one")
    assert len(hashed) == 3


@pytest.mark.parametrize("seed", [10**16, 10**16 + 1, -(10**15)])
def test_embedder_refuses_a_seed_longer_than_its_salt(seed):
    # blake2b's salt holds 16 bytes, so longer seeds would share one
    with pytest.raises(InputError, match="16 bytes"):
        HashedBagOfWordsEmbedder(seed=seed)


def test_doc_retriever_ranking_and_ties():
    embedder = HashedBagOfWordsEmbedder(dimension=128, seed=0)
    docs = [
        ("d0", "cats purr loudly"),
        ("d1", "dogs bark loudly"),
        ("d2", "cats and dogs together"),
    ]
    retriever = CosineDocRetriever(docs, embedder)
    got = retriever.retrieve(embedder.embed("cats purr"), 2)
    assert got[0] == docs[0]
    assert retriever.retrieve(embedder.embed("anything"), 0) == []
    # identical embeddings tie and keep corpus order
    dup = CosineDocRetriever([("a", "same words"), ("b", "same words")], embedder)
    assert [t for t, _ in dup.retrieve(embedder.embed("same words"), 2)] == ["a", "b"]


def test_reference_generator_is_deterministic(small_model):
    gen = ReferenceModelGenerator(small_model, max_new=8)
    messages = [{"role": "user", "content": "2 + 2 = "}]
    assert gen.generate(messages) == gen.generate(messages)
    assert gen.accepts_kv_prefix is True


def test_reference_generator_truncates_long_prompts(small_model):
    gen = ReferenceModelGenerator(small_model, max_new=4)
    long_prompt = "x" * (small_model.config.max_positions + 500)
    text = gen.generate([{"role": "user", "content": long_prompt}])
    assert isinstance(text, str)


def test_scripted_generator_replays_in_order():
    gen = ScriptedGenerator({"q": ["one", "two"]}, default=["dflt"])
    prompt = [{"role": "user", "content": "Here is the user question:\nq"}]
    assert gen.generate(prompt) == "one"
    assert gen.generate(prompt) == "two"
    assert gen.generate(prompt) == "two"  # repeats last
    other = [{"role": "user", "content": "Here is the user question:\nother"}]
    assert gen.generate(other) == "dflt"


# -- prompt KV reuse in the reference generator --------------------------------

HEAD = "Answer from the documents below only.\n" * 4
DOCS = [f"Document {i}: the r{i} of e{i} is e{i + 1}. " + "filler words " * 12 for i in range(4)]


def _prompts():
    """Four rounds whose prompts grow by appended documents."""
    return [
        [{"role": "user", "content": HEAD + "\n".join(DOCS[: r + 1]) + "\nquestion?"}]
        for r in range(4)
    ]


@pytest.fixture()
def forwards(monkeypatch):
    """(tokens fed, last-token logits) of every forward pass."""
    calls = []
    real = lag.model.forward_with_prefix

    def recording(model, prefix, tokens, start_position, **kwargs):
        logits, cache = real(model, prefix, tokens, start_position, **kwargs)
        calls.append((len(tokens), logits[-1].copy()))
        return logits, cache

    monkeypatch.setattr(lag.model, "forward_with_prefix", recording)
    return calls


def _fresh(model, messages, kv_prefix=None):
    return ReferenceModelGenerator(model, max_new=6).generate(messages, kv_prefix=kv_prefix)


@pytest.fixture()
def log_prefix(small_model, rng):
    return encode(small_model, rng.integers(0, 256, 40).tolist(), 0)[0]


@pytest.mark.parametrize("with_prefix", [False, True])
def test_reused_generator_matches_fresh_generators(small_model, log_prefix, forwards, with_prefix):
    kv = log_prefix if with_prefix else None
    start = log_prefix.span_len if with_prefix else 0
    gen = ReferenceModelGenerator(small_model, max_new=6)
    tokenizer = gen.tokenizer
    fed = []
    for messages in _prompts():
        forwards.clear()
        text = gen.generate(messages, kv_prefix=kv)
        n, logits = forwards[0]
        fed.append(n)
        tokens = tokenizer.encode(messages[0]["content"])
        want, _ = forward_with_prefix(small_model, kv, tokens, start)  # one pass
        assert np.abs(logits - want[-1]).max() <= 1e-5
        forwards.clear()
        assert text == _fresh(small_model, messages, kv)
    full = [len(tokenizer.encode(m[0]["content"])) for m in _prompts()]
    assert fed[0] == full[0]
    for r in range(1, 4):
        # the head and the earlier documents are reused; the question is not
        assert fed[r] == full[r] - full[r - 1] + len("question?")


@pytest.mark.parametrize("change", ["value", "positions"])
def test_a_different_prefix_is_not_reused(small_model, log_prefix, forwards, change):
    gen = ReferenceModelGenerator(small_model, max_new=6)
    messages = _prompts()[1]
    gen.generate(messages, kv_prefix=log_prefix)
    if change == "value":
        keys = log_prefix.keys.copy()
        keys[1][0, 3, 2] += 1e-3
        other = KvSegment(
            keys, log_prefix.values, log_prefix.positions, log_prefix.model_fingerprint)
    else:
        other = KvSegment(
            log_prefix.keys, log_prefix.values, log_prefix.positions + 1,
            log_prefix.model_fingerprint)
    forwards.clear()
    text = gen.generate(messages, kv_prefix=other)
    # the same messages, but not the same prefix: the whole prompt is fed
    assert forwards[0][0] == len(gen.tokenizer.encode(messages[0]["content"]))
    forwards.clear()
    assert text == _fresh(small_model, messages, other)


def test_reuse_stops_at_the_last_token_fed_back(small_model, forwards):
    # a decode stopped by max_new never feeds its last token into the cache
    gen = ReferenceModelGenerator(small_model, max_new=6)
    prompt = HEAD + "question?"
    out = gen.generate([{"role": "user", "content": prompt}])
    assert len(gen.tokenizer.encode(out)) == 6  # round-trips as bytes
    follow_up = [{"role": "user", "content": prompt + out + " and then?"}]
    forwards.clear()
    text = gen.generate(follow_up)
    assert forwards[0][0] == len(" and then?") + 1
    forwards.clear()
    assert text == _fresh(small_model, follow_up)


def test_over_budget_prompts_match_fresh_generators(small_model, log_prefix, forwards):
    # an over-budget prompt keeps its last ``budget`` tokens, so a repeat is
    # cut the same way and is an exact repeat of the memo
    for kv in (None, log_prefix):
        gen = ReferenceModelGenerator(small_model, max_new=6)
        budget = small_model.config.max_positions - (kv.span_len if kv else 0) - 6
        long = HEAD * 60
        assert len(long) > budget  # ASCII: one token a character
        fed = []
        for messages in (
            [{"role": "user", "content": long}],
            [{"role": "user", "content": long + DOCS[0]}],  # shifts the kept window
            [{"role": "user", "content": long + DOCS[0]}],  # same window again
        ):
            forwards.clear()
            text = gen.generate(messages, kv_prefix=kv)
            fed.append([n for n, _ in forwards])
            forwards.clear()
            assert text == _fresh(small_model, messages, kv)
            tail = [{"role": "user", "content": messages[0]["content"][-budget:]}]
            assert text == _fresh(small_model, tail, kv)
        assert fed[0][0] == budget
        # the repeated window returned the previous output with no pass
        assert fed[2] == []


def test_a_failed_decode_leaves_no_memo(small_model, log_prefix, forwards, monkeypatch):
    gen = ReferenceModelGenerator(small_model, max_new=6)
    first, second = _prompts()[2], _prompts()[3]
    want = _fresh(small_model, first, log_prefix)
    gen.generate(first, kv_prefix=log_prefix)
    real = lag.backends.greedy_decode

    def fails_midway(model, cache, prompt, max_new, stop_ids=frozenset(), count=0):
        # writes part of the prompt over the cached slots, then fails
        real(model, cache, prompt[: len(prompt) // 2], 1)
        raise RuntimeError("decode interrupted")

    monkeypatch.setattr(lag.backends, "greedy_decode", fails_midway)
    with pytest.raises(RuntimeError):
        gen.generate([{"role": "user", "content": "X" + second[0]["content"]}],
                     kv_prefix=log_prefix)
    monkeypatch.setattr(lag.backends, "greedy_decode", real)
    forwards.clear()
    assert gen.generate(first, kv_prefix=log_prefix) == want
    assert forwards[0][0] == len(gen.tokenizer.encode(first[0]["content"]))


def test_nan_prefix_is_rejected_after_a_clean_one(small_model, log_prefix):
    # the same messages and prefix shape, so only the content check stops
    # the call from being taken for a repeat
    gen = ReferenceModelGenerator(small_model, max_new=6)
    messages = _prompts()[0]
    gen.generate(messages, kv_prefix=log_prefix)
    values = log_prefix.values.copy()
    values[0][1, 5, 0] = np.nan
    bad = KvSegment(
        log_prefix.keys, values, log_prefix.positions, log_prefix.model_fingerprint)
    with pytest.raises(InputError):
        gen.generate(messages, kv_prefix=bad)


def test_a_prefix_that_leaves_no_room_for_the_prompt_is_refused(small_model):
    gen = ReferenceModelGenerator(small_model, max_new=6)
    # the prefix ends where the max_new output slots begin
    prefix, _ = encode(small_model, [1], small_model.config.max_positions - 7)
    with pytest.raises(BackendError, match="no room for the prompt"):
        gen.generate(_prompts()[0], kv_prefix=prefix)


def test_an_empty_prompt_after_a_call_is_rejected(small_model):
    gen = ReferenceModelGenerator(small_model, max_new=6)
    gen.generate(_prompts()[0])
    with pytest.raises(InputError):
        gen.generate([{"role": "user", "content": ""}])


# -- an exact repeat returns the previous output -------------------------------


@pytest.mark.parametrize("with_prefix", [False, True])
def test_a_repeated_call_checks_the_previous_output_in_one_pass(
    small_model, log_prefix, forwards, with_prefix
):
    # the one pass is the memo's key check (prefix content, prompt ids,
    # max_new); the previous output comes back with no forward pass
    kv = log_prefix if with_prefix else None
    gen = ReferenceModelGenerator(small_model, max_new=6)
    messages = _prompts()[2]
    first = gen.generate(messages, kv_prefix=kv)
    forwards.clear()
    assert gen.generate(messages, kv_prefix=kv) == first
    assert gen.generate(messages, kv_prefix=kv) == first  # the memo was put back
    assert forwards == []
    assert first == _fresh(small_model, messages, kv)


def test_a_repeat_under_another_max_new_is_decoded(small_model, forwards):
    gen = ReferenceModelGenerator(small_model, max_new=6)
    messages = _prompts()[0]
    gen.generate(messages)
    gen.max_new = 3
    forwards.clear()
    text = gen.generate(messages)
    assert forwards  # decoded, after reusing the prompt's head
    assert text == ReferenceModelGenerator(small_model, max_new=3).generate(messages)


@pytest.mark.parametrize("follow", ["strict_head", "extended_by_output"])
def test_a_prompt_that_only_overlaps_the_memo_is_not_a_repeat(
    small_model, log_prefix, forwards, follow
):
    gen = ReferenceModelGenerator(small_model, max_new=6)
    messages = _prompts()[2]
    prompt = messages[0]["content"]
    out = gen.generate(messages, kv_prefix=log_prefix)
    if follow == "strict_head":  # the memo's prompt less its last token
        second = [{"role": "user", "content": prompt[:-1]}]
    else:  # the memo's prompt and output: the ids the memo holds
        assert len(gen.tokenizer.encode(out)) == 6  # round-trips as bytes
        second = [{"role": "user", "content": prompt + out}]
    forwards.clear()
    text = gen.generate(second, kv_prefix=log_prefix)
    fed = forwards[0][0]
    assert 0 < fed < len(gen.tokenizer.encode(second[0]["content"]))  # the head is reused
    forwards.clear()
    assert text == _fresh(small_model, second, log_prefix)


def test_a_prompt_the_memo_does_not_start_with_gets_no_draft(small_model, log_prefix, forwards):
    # no draft: the memo's output is not handed back, the prompt is decoded
    gen = ReferenceModelGenerator(small_model, max_new=6)
    # shorter than the memo's ids, and shares their head but not all of it
    first, second = _prompts()[2], _prompts()[1]
    gen.generate(first, kv_prefix=log_prefix)
    forwards.clear()
    text = gen.generate(second, kv_prefix=log_prefix)
    fed = forwards[0][0]
    assert 0 < fed < len(gen.tokenizer.encode(second[0]["content"]))  # still reused
    forwards.clear()
    assert text == _fresh(small_model, second, log_prefix)


# -- the draft count the memo carries ------------------------------------------

# the small model's replies to these loop on one byte; a 16-token reply to
# the last, after the first two on one generator, is checked in one draft
LOOPING = _prompts()[1:]


def _drafts(forwards):
    """The widths of the passes after the prefill that held a draft; the
    record is cleared."""
    drafts = [n for n, _ in forwards[1:] if n > 1]
    forwards.clear()
    return drafts


def _warmed(model):
    """A generator whose memo carries the count of two looping replies."""
    gen = ReferenceModelGenerator(model, max_new=16)
    gen.generate(LOOPING[0])
    gen.generate(LOOPING[1])
    return gen


def test_the_draft_count_is_carried_into_the_next_call(small_model, forwards):
    # a fresh generator drafts 1 token first; after looping replies, the
    # next call checks the rest of its own looping reply in one pass
    want = ReferenceModelGenerator(small_model, max_new=16).generate(LOOPING[2])
    assert _drafts(forwards) == [2, 3, 5, 3]  # an output token and 1, 2, 4 and 2 drafted
    gen = _warmed(small_model)
    forwards.clear()
    assert gen.generate(LOOPING[2]) == want
    # the prefill and two one-token passes give 3 tokens; one pass of the
    # 3rd and 12 drafted gives the other 13
    assert _drafts(forwards) == [13]


def test_an_exact_repeat_keeps_the_draft_count(small_model, forwards):
    gen = _warmed(small_model)
    gen.generate(LOOPING[1])  # decodes nothing
    forwards.clear()
    gen.generate(LOOPING[2])
    assert _drafts(forwards) == [13]


def test_a_failed_decode_drops_the_draft_count(small_model, forwards, monkeypatch):
    want = ReferenceModelGenerator(small_model, max_new=16).generate(LOOPING[2])
    fresh = [n for n, _ in forwards]
    gen = _warmed(small_model)
    real = lag.backends.greedy_decode

    def fails_at_the_end(model, cache, prompt, max_new, stop_ids=frozenset(), count=0):
        # decodes in full, so the count grows, then fails
        real(model, cache, prompt, max_new, stop_ids, count=count)
        raise RuntimeError("decode interrupted")

    monkeypatch.setattr(lag.backends, "greedy_decode", fails_at_the_end)
    with pytest.raises(RuntimeError):
        gen.generate(LOOPING[0])
    monkeypatch.setattr(lag.backends, "greedy_decode", real)
    forwards.clear()
    # no memo and no count: the whole prompt is fed, and 1 token drafted first
    assert gen.generate(LOOPING[2]) == want
    assert [n for n, _ in forwards] == fresh
