import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from lag.backends import (
    CosineDocRetriever,
    HashedBagOfWordsEmbedder,
    HttpGeneratorBackend,
    ReferenceModelGenerator,
    ScriptedGenerator,
)
from lag.errors import BackendError
from lag.model import encode


class _Handler(BaseHTTPRequestHandler):
    requests: list[dict] = []
    # one entry per request to fail, in order: an HTTP status to answer
    # with, or None to close the connection without a response
    failures: list[int | None] = []

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
        reply = json.dumps(
            {"text": f"echo: {body['messages'][-1]['content'][:20]}"}
        ).encode()
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.requests = []
    _Handler.failures = []
    yield f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    server.server_close()


def test_http_wire_contract(http_server):
    backend = HttpGeneratorBackend(http_server, max_tokens=99)
    text = backend.generate([{"role": "user", "content": "hello wire"}])
    assert text == "echo: hello wire"
    sent = _Handler.requests[-1]
    assert sent == {
        "messages": [{"role": "user", "content": "hello wire"}],
        "max_tokens": 99,
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


def test_doc_retriever_ranking_and_ties():
    embedder = HashedBagOfWordsEmbedder(dimension=128, seed=0)
    docs = [
        ("d0", "cats purr loudly"),
        ("d1", "dogs bark loudly"),
        ("d2", "cats and dogs together"),
    ]
    retriever = CosineDocRetriever(docs, embedder)
    got = retriever.retrieve("cats purr", 2)
    assert got[0] == docs[0]
    assert retriever.retrieve("anything", 0) == []
    # identical embeddings tie and keep corpus order
    dup = CosineDocRetriever([("a", "same words"), ("b", "same words")], embedder)
    assert [t for t, _ in dup.retrieve("same words", 2)] == ["a", "b"]


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
