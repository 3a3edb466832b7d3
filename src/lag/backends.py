"""Generator, embedder, and document-retriever backends for the agent loop.

The in-process reference model is the only generator that can consume an
injected KV prefix. The scripted generator replays canned responses and
exists for deterministic end-to-end runs and tests. The HTTP generator for
external text-mode models is in ``lag.remote``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass

import numpy as np

from .datasets import is_unicode
from .errors import BackendError, InputError
from .model import ByteTokenizer, Model, greedy_decode
from .segment import KvSegment
from .store import normalize


class GeneratorBackend:
    """Interface: generate(messages, kv_prefix=..., log_entries=...) -> text.

    ``log_entries`` carries the retrieved logs (the loop hands the generator
    both the prompt and the logs); model-backed generators read the logs via
    the KV prefix and ignore the entry list.
    """

    accepts_kv_prefix = False

    def generate(self, messages, kv_prefix=None, log_entries=None) -> str:
        raise NotImplementedError


class ReferenceModelGenerator(GeneratorBackend):
    """Greedy decoding on the in-process reference model.

    The generator keeps one memo: the KV cache of its last call and the
    token ids it was fed, after the prefix reuse of Prompt Cache (Gim et
    al., 2023) and RadixAttention (Zheng et al., 2024). Calls run one at a
    time, and the memo carries over task boundaries. A call whose KV prefix
    equals the cache's prefix in content truncates the cache to that prefix
    plus the prompt's common head with the cached tokens and prefills only
    the rest. A call that also repeats the cached prompt and ``max_new``
    returns the cached output with no forward pass.

    Decoding is ``greedy_decode``'s: after each output token it drafts the
    tokens that followed the first earlier occurrence of the context's last
    3 (else 2) tokens, up to a limit that starts at 1, doubles on a full
    accept and falls to what was accepted otherwise, and checks them in one
    pass. The output is the one-token loop's up to float order, as with the
    memo's split prefill: a multi-row pass rounds differently from a one-row
    pass.
    """

    accepts_kv_prefix = True

    def __init__(self, model: Model, max_new: int = 64):
        self.model = model
        self.max_new = max_new
        self.tokenizer = ByteTokenizer()
        self._memo = None

    def generate(self, messages, kv_prefix: KvSegment | None = None, log_entries=None) -> str:
        text = "\n".join(m["content"] for m in messages)
        tokens = self.tokenizer.encode(text)
        m = kv_prefix.span_len if kv_prefix is not None else 0
        start = int(kv_prefix.positions[-1]) + 1 if m else 0
        budget = self.model.config.max_positions - start - self.max_new
        if budget <= 0:
            raise BackendError("KV prefix leaves no room for the prompt")
        if len(tokens) > budget:
            tokens = tokens[-budget:]  # keep the most recent context
        # the memo is taken until this call succeeds, so a decode that
        # raises leaves none
        memo, self._memo = self._memo, None
        cache, reused = None, 0
        if memo is not None:
            cache, cached_m, cached, p, max_new = memo
            if cached_m != m or (m and not kv_prefix.equals(cache.segment(m))):
                cache = None
            elif cached[:p] == tokens and max_new == self.max_new:
                self._memo = memo  # greedy decoding would repeat itself
                return self.tokenizer.decode(cached[p:])
            else:  # keep the prefix and the prompt's common head
                n = max(0, min(len(tokens) - 1, cache.span_len - m))
                differ = np.flatnonzero(np.asarray(cached[:n]) != np.asarray(tokens[:n]))
                reused = int(differ[0]) if differ.size else n
                cache.truncate(m + reused)
        if cache is None:
            cache = self.model.prefix_cache(kv_prefix)
        out = greedy_decode(
            self.model,
            cache,
            tokens[reused:],
            self.max_new,
            stop_ids={ByteTokenizer.EOS},
        )
        # (cache, prefix span, prompt and output ids, prompt length, max_new);
        # a decode stopped by max_new never feeds its last token back, so the
        # cache's span, not the ids, bounds what the next call reuses
        self._memo = (cache, m, tokens + out, len(tokens), self.max_new)
        return self.tokenizer.decode(out)


_QUESTION_RE = re.compile(
    r"Here is the user question:\n(.*?)(?:\n\nHere are the multiple-choice answers:|\Z)",
    re.DOTALL,
)


def question_of_prompt(content: str) -> str:
    """The question a rendered prompt asks (used to key scripted replies)."""
    m = _QUESTION_RE.search(content)
    return m.group(1).strip() if m else content.strip()


class ScriptedGenerator(GeneratorBackend):
    """Replays canned responses keyed by the question in the prompt; the i-th
    call for a question returns the i-th response. Runs past the end of a
    script repeat its last response."""

    accepts_kv_prefix = True

    def __init__(self, scripts: dict[str, list[str]], default: list[str] | None = None):
        self.scripts = dict(scripts)
        self.default = list(default) if default else ["no idea"]
        self._cursor: dict[str, int] = {}

    @classmethod
    def from_file(cls, path: str) -> "ScriptedGenerator":
        """``{"scripts": {question: [reply, ...]}, "default": [reply, ...]}``;
        both keys are optional."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as err:  # bad JSON or bad UTF-8
                raise InputError(f"{path}: not a JSON file: {err}") from err
        if not is_unicode(data):
            raise InputError(f"{path}: text is not valid Unicode (a lone surrogate)")
        scripts = data.get("scripts", {}) if isinstance(data, dict) else None
        if not isinstance(scripts, dict):
            raise InputError(f"{path}: expected an object with a 'scripts' object")
        lists = list(scripts.items())
        if "default" in data:
            lists.append(("default", data["default"]))
        for name, replies in lists:
            if not (isinstance(replies, list) and replies
                    and all(isinstance(r, str) for r in replies)):
                raise InputError(f"{path}: {name!r} is not a non-empty list of strings")
        return cls(scripts, data.get("default"))

    def generate(self, messages, kv_prefix=None, log_entries=None) -> str:
        question = question_of_prompt(messages[-1]["content"])
        script = self.scripts.get(question, self.default)
        i = self._cursor.get(question, 0)
        self._cursor[question] = i + 1
        return script[min(i, len(script) - 1)]


# distinct tokens the embedder's memo holds before it starts again: 2^13
# entries take ~0.8 MB and hold all of hop_reuse's ~3.9k (CHANGES.md)
MEMO_TOKENS = 1 << 13
_TOKEN = re.compile(r"[a-z0-9]+")


class HashedBagOfWordsEmbedder:
    """Deterministic reference embedder: tokens are hashed into a fixed
    number of signed buckets and the result is L2-normalized.

    Each distinct token is hashed once: a memo maps it to its bucket * 2 +
    sign bit, and the vector is one ``np.bincount`` of those codes. The
    counts are integers, so the vector equals summing +-1 per token, bit for
    bit. The memo is emptied when it reaches ``MEMO_TOKENS`` entries, so its
    memory stays bounded over any vocabulary."""

    def __init__(self, dimension: int = 256, seed: int = 0):
        if dimension <= 0:
            raise InputError("embedding dimension must be positive")
        self._salt = str(seed).encode()
        if len(self._salt) > 16:  # blake2b's salt limit; two seeds must not share one
            raise InputError(f"embedder seed {seed}: its decimal form is over 16 bytes")
        self.dimension = dimension
        self._codes: dict[str, int] = {}

    def _code(self, token: str) -> int:
        if len(self._codes) >= MEMO_TOKENS:
            self._codes.clear()
        h = int.from_bytes(
            hashlib.blake2b(token.encode("utf-8"), digest_size=8, salt=self._salt).digest(),
            "little",
        )
        code = self._codes[token] = h % self.dimension * 2 + (h >> 63)
        return code

    def embed(self, text: str) -> np.ndarray:
        codes = self._codes
        ids = [self._code(t) if (code := codes.get(t)) is None else code
               for t in _TOKEN.findall((text or "").lower())]
        counts = np.bincount(np.array(ids, dtype=np.intp), minlength=2 * self.dimension)
        return normalize((counts[1::2] - counts[::2]).astype(np.float32))


class CosineDocRetriever:
    """Exact cosine retrieval over an embedded passage list; ties keep the
    corpus order. Queries arrive embedded by the same embedder."""

    def __init__(self, passages: list[tuple[str, str]], embedder):
        self.passages = list(passages)
        self._matrix = np.array(
            [embedder.embed(f"{title}\n{text}") for title, text in self.passages],
            dtype=np.float64,
        )

    def retrieve(self, query: np.ndarray, k: int) -> list[tuple[str, str]]:
        if k <= 0 or not self.passages:
            return []
        sims = self._matrix @ np.asarray(query, dtype=np.float64)
        order = np.argsort(-sims, kind="stable")[:k]
        return [self.passages[int(i)] for i in order]


@dataclass
class Backends:
    """Everything a task run needs besides the store: the generator, the
    text embedder and the model used to assemble KV prefixes. Documents are
    retrieved from each task's own corpus."""

    generator: GeneratorBackend
    embedder: HashedBagOfWordsEmbedder
    model: Model | None = None
