"""Workload inputs and the one operation each workload repeats.

Task pools are fixed: they come from ``POOL_SEED``, so the golden outputs in
``golden.json`` cover every pool task once. The run's ``--seed`` draws the
sample of pool tasks and its order. The program only ever receives the
resulting ``TaskRecord``s; the stores the read workloads open are built from
the seen half of their pool with ``ingest_tasks`` and do not depend on the
seed.

Workloads (one closed-loop client, an op is one task):

* ``kv_agent`` -- ``lag run --mode lag_kv --generator reference``: the model
  and its kernels do the work (prefill of ~1k-token prompts after a ~200-token
  injected prefix, 64 decoded tokens per round).
* ``hop_reuse`` -- the synth-hop walkthrough at scale in ``lag_kv`` mode: the
  generator is free and the model idle, so prefix assembly (repositioning and
  concatenation of every accumulated log, every round) dominates.
* ``ingest_text`` -- ``lag ingest`` of ~2000 text logs into a fresh store: the
  store's write path.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, replace

import numpy as np

from lag import orchestrator, runner
from lag.backends import (
    Backends,
    GeneratorBackend,
    HashedBagOfWordsEmbedder,
    ReferenceModelGenerator,
)
from lag.codec import SelectionStrategy
from lag.config import ModelConfig
from lag.datasets import TaskRecord
from lag.metrics import exact_match
from lag.model import build_model
from lag.orchestrator import LAG_KV, RunConfig
from lag.synth import FactChainGenerator, chain_question, fact_sentence

POOL_SEED = 20250520
EMBED_DIM = 256  # the CLI default
KV_STRATEGY = SelectionStrategy("last_round", "full_trace")
TEXT_STRATEGY = SelectionStrategy("last_round_text")

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

# Filler for kv_agent documents; sized so a rendered prompt is ~1k tokens.
_FILLER = (
    "It is recorded in the registry together with the other entries of the "
    "same archive."
)


@dataclass(frozen=True)
class Spec:
    name: str
    families: int  # pool size: one seen and one unseen task per family
    hops: tuple[int, int]  # inclusive range of chain lengths
    sample: int  # tasks drawn from the pool per seed
    generator: str  # "reference" | "synth-hop"
    max_steps: int
    k_docs: int
    k_logs: int
    distractors: int
    padded_docs: bool = False
    reads_store: bool = True
    whole_passes: bool = False  # time whole passes over the sample
    warmup_tasks: int = 1  # untimed ops before timing; their KV prefixes are checked
    prefix_in_ops: bool = False  # check the KV prefixes of the timed ops too
    trace_build: int = 0  # seen tasks ingested again under the tracer


SPECS = {
    "kv_agent": Spec(
        "kv_agent", families=16, hops=(2, 3), sample=12, generator="reference",
        max_steps=4, k_docs=2, k_logs=3, distractors=3, padded_docs=True,
        prefix_in_ops=True, trace_build=4,
    ),
    "hop_reuse": Spec(
        "hop_reuse", families=300, hops=(2, 5), sample=240, generator="synth-hop",
        max_steps=8, k_docs=1, k_logs=3, distractors=2, whole_passes=True,
        warmup_tasks=240, trace_build=100,
    ),
    "ingest_text": Spec(
        "ingest_text", families=1200, hops=(2, 5), sample=2000,
        generator="synth-hop", max_steps=8, k_docs=1, k_logs=0, distractors=2,
        reads_store=False, warmup_tasks=300,
    ),
}


def _name(rng: random.Random, prefix: str, used: set[str]) -> str:
    while True:
        name = prefix + "".join(rng.choice(_ALPHABET) for _ in range(5))
        if name not in used:
            used.add(name)
            return name


def _doc(title: str, sentence: str, padded: bool) -> tuple[str, str]:
    return title, f"{sentence} {_FILLER}" if padded else sentence


def pool(spec: Spec) -> tuple[list[TaskRecord], list[TaskRecord]]:
    """(seen, unseen) fact-chain tasks with per-task corpora. Unseen task i
    shares a random-length hop prefix with seen task i, so a retrieved log of
    the seen run can spare rounds."""
    rng = random.Random(f"{POOL_SEED}:{spec.name}")
    used: set[str] = set()
    seen, unseen = [], []
    for fam in range(spec.families):
        hops = rng.randint(*spec.hops)
        overlap = rng.randint(0, hops - 1)
        rels = [_name(rng, "r", used) for _ in range(hops)]
        ents = [_name(rng, "e", used) for _ in range(hops + 1)]
        u_rels = rels[:overlap] + [_name(rng, "r", used) for _ in range(overlap, hops)]
        u_ents = ents[: overlap + 1] + [
            _name(rng, "e", used) for _ in range(overlap + 1, hops + 1)
        ]
        noise = [
            _doc(
                f"{_name(rng, 'z', used)} note",
                fact_sentence(_name(rng, "q", used), _name(rng, "a", used),
                              _name(rng, "b", used)),
                spec.padded_docs,
            )
            for _ in range(spec.distractors)
        ]
        for role, r, e, out in (("seen", rels, ents, seen), ("unseen", u_rels, u_ents, unseen)):
            corpus = [
                _doc(f"{e[i]} {rel}", fact_sentence(rel, e[i], e[i + 1]), spec.padded_docs)
                for i, rel in enumerate(r)
            ]
            out.append(
                TaskRecord(
                    id=f"{spec.name}-f{fam}-{role}",
                    question=chain_question(r, e[0]),
                    answers=[e[-1]],
                    corpus=corpus + noise,
                )
            )
    return seen, unseen


def run_pool(spec: Spec) -> list[TaskRecord]:
    """The tasks a workload's ops draw from: the unseen half for the read
    workloads, both halves for ingest."""
    seen, unseen = pool(spec)
    return unseen if spec.reads_store else seen + unseen


def sample_tasks(spec: Spec, seed: int) -> list[TaskRecord]:
    """The seed's ordered sample of pool tasks."""
    return random.Random(seed).sample(run_pool(spec), spec.sample)


def pool_digest(spec: Spec) -> str:
    """Digest of the pool's task records, pinned beside the golden outputs."""
    seen, unseen = pool(spec)
    text = json.dumps(
        [[t.id, t.question, t.answers, t.corpus] for t in seen + unseen],
        sort_keys=True,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_backends(spec: Spec, model=None) -> Backends:
    model = model if model is not None else build_model(ModelConfig())
    if spec.generator == "reference":
        generator = ReferenceModelGenerator(model, max_new=64)
    else:
        generator = FactChainGenerator()
    return Backends(
        generator=generator,
        embedder=HashedBagOfWordsEmbedder(dimension=EMBED_DIM, seed=0),
        model=model,
    )


def run_config(spec: Spec) -> RunConfig:
    return RunConfig(
        mode=LAG_KV,
        max_steps=spec.max_steps,
        k_logs=spec.k_logs,
        k_docs=spec.k_docs,
        strategy=KV_STRATEGY,
        gen_max_new=64,
    )


def build_store(spec: Spec, backends: Backends, path, limit: int | None = None) -> None:
    """The read workloads' store: KV logs of the seen half (or its first
    ``limit`` tasks)."""
    seen, _ = pool(spec)
    runner.ingest_tasks(
        seen[:limit], KV_STRATEGY, backends, path,
        max_steps=spec.max_steps, gen_max_new=64, k_docs=spec.k_docs,
    )


DIGEST_HEX = 24  # leading hex digits of sha256 kept in golden.json


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


def transcript_digest(transcript) -> str:
    final = transcript.final_action
    text = json.dumps(
        [transcript.turns, transcript.iterations, final.kind, final.payload],
        ensure_ascii=False,
    )
    return digest(text.encode("utf-8"))


_PROJECTION = np.zeros(0)


def _projection(n: int) -> np.ndarray:
    """A fixed vector of ``n`` weights in [-1, 1]."""
    global _PROJECTION
    if _PROJECTION.size < n:
        _PROJECTION = np.cos(np.arange(max(n, 2 * _PROJECTION.size)) * 0.6180339887)
    return _PROJECTION[:n]


def prefix_fingerprint(seg) -> list | None:
    """What the golden check keeps of one round's KV prefix: a digest of its
    positions and tensor shapes, and for keys and for values their norm and
    their projection on a fixed vector. ``run.prefixes_match`` compares the
    floats with a tolerance relative to the norm, so a change in the order of
    float operations passes while a wrong rotation, position or entry does
    not."""
    if seg is None:
        return None
    shapes = [k.shape for k in seg.keys] + [v.shape for v in seg.values]
    out = [digest(seg.positions.astype(np.int64).tobytes() + repr(shapes).encode())]
    for tensors in (seg.keys, seg.values):
        sq = proj = 0.0
        for t in tensors:
            flat = t.ravel().astype(np.float64)
            sq += float(flat @ flat)
            proj += float(flat @ _projection(flat.size))
        out += [float(f"{sq ** 0.5:.9g}"), float(f"{proj:.9g}")]
    return out


class PrefixRecorder(GeneratorBackend):
    """Wraps a generator and keeps the fingerprint of the KV prefix it is
    given each round: the synth-hop generator ignores the prefix and the
    untrained model's output barely depends on it, so answer and transcript
    alone would not show a wrongly assembled prefix."""

    def __init__(self, inner: GeneratorBackend):
        self.inner = inner
        self.accepts_kv_prefix = inner.accepts_kv_prefix
        self.rounds: list = []

    def generate(self, messages, kv_prefix=None, log_entries=None) -> str:
        self.rounds.append(prefix_fingerprint(kv_prefix))
        return self.inner.generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)


def read_op(task: TaskRecord, cfg: RunConfig, backends: Backends, store,
            prefixes: bool = False) -> dict:
    """One task through the agent loop; with ``prefixes`` the record also
    holds the fingerprint of every round's KV prefix. The loop is looked up
    on its module at call time so a tracer's wrapper applies."""
    recorder = None
    if prefixes:
        recorder = PrefixRecorder(backends.generator)
        backends = replace(backends, generator=recorder)
    try:
        final, transcript, _ = orchestrator.run_task(task, cfg, backends, store)
    except Exception as err:  # a failed op is counted, and the run goes on
        return {"id": task.id, "error": f"{type(err).__name__}: {err}"}
    answer = final.payload if final.kind == "answer" else None
    rec = {
        "id": task.id,
        "answer": answer,
        "digest": transcript_digest(transcript),
        "rounds": transcript.iterations,
        "em": exact_match(answer, task.answers) if answer is not None else 0,
    }
    if recorder is not None:
        rec["prefixes"] = recorder.rounds
    return rec


class ClockedTasks(list):
    """A task list that times every task of an ``ingest_tasks`` call from the
    outside: a task runs from when the consumer takes it until it takes the
    next one, or until ``finish`` when the call has returned. Between two
    tasks, outside both, it calls ``between`` with the busy seconds of the
    task just ended."""

    def __init__(self, tasks, on_next=None, between=None):
        super().__init__(tasks)
        self.spans: list[list[float]] = []  # [start, end] per task taken
        self.on_next = on_next
        self.between = between

    def __iter__(self):
        for task in super().__iter__():
            self.finish()
            if self.on_next is not None:
                self.on_next(task)
            self.spans.append([time.perf_counter()])
            yield task

    def finish(self) -> None:
        """Ends the task in flight, if there is one."""
        if self.spans and len(self.spans[-1]) == 1:
            self.spans[-1].append(time.perf_counter())
            if self.between is not None:
                self.between(self.spans[-1][1] - self.spans[-1][0])


class CountingGenerator(FactChainGenerator):
    """The synth-hop generator, counting its calls (one per round)."""

    def __init__(self):
        self.calls = 0

    def generate(self, messages, kv_prefix=None, log_entries=None) -> str:
        self.calls += 1
        return super().generate(messages, kv_prefix, log_entries)
