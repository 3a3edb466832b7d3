import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

import lag.orchestrator
from lag.actions import Action
from lag.backends import (
    Backends,
    HashedBagOfWordsEmbedder,
    ReferenceModelGenerator,
    ScriptedGenerator,
)
from lag.cli import main
from lag.codec import LogEntry, SelectionStrategy, encode_log
from lag.config import ModelConfig
from lag.datasets import TaskRecord, save_tasks
from lag.errors import ConfigurationError, IncompatibilityError, InputError
from lag.model import Model, build_model, encode
from lag.orchestrator import RunConfig, TaskError, assemble_kv_prefix, run_task
from lag.rope import reposition_segment
from lag.runner import ingest_tasks
from lag.segment import KvSegment
from lag.store import LogStore, normalize
from lag.synth import FactChainGenerator, build_reuse_suite
from tests.conftest import SMALL_CONFIG
from tests.oracles import reposition_error
from tests.test_codec import transcript

KNOWLEDGE_HEAD = (
    "Do not use your general knowledge. Do not assume the existence of external "
    "knowledge. Do not make any guesses.\n"
    "You are provided with a user question, and information that might be relevant "
    "to the user question.\n"
    "\n"
    "Your task consists of the following steps:\n"
    "1. From the provided information, extract facts that is relevant to the user "
    "question\n"
    "\n"
    "2. Based on the provided information only, determine if you have sufficient "
    "information to answer the user question\n"
    "- If you can determine the answer, output a short answer (in a few words) to "
    "the user question. The short answer must be wrapped in <ans></ans>.\n"
    "- If you cannot determine the answer, output some keywords that can help you "
    "retrieve new information. The keywords must be wrapped in "
    "<keywords></keywords>.\n"
    "\n"
    "Here is the information:\n"
)

REASONING_HEAD = (
    "You are provided with a multi-choice question. Your task consists of the "
    "following steps:\n"
    "1. From the provided information, extracts the key insights helpful for "
    "solving the user question\n"
    "\n"
    "2. Break down and solve the question step by step, without relying on the "
    "provided answer choices\n"
    "\n"
    "3. Based on your analysis, determine if you have sufficient information to "
    "identify the single most probable answer\n"
    "- If you can identify the answer, output the answer as the letter "
    "corresponding to the answer choice, placed inside parentheses and wrapped in "
    "<ans></ans> (e.g., <ans>(A)</ans>).\n"
    "- If you cannot identify the answer, output sub-questions that, if solved, "
    "can lead to new information. The sub-questions must be wrapped in "
    "<subquestion></subquestion>.\n"
    "\n"
    "Here is the information:\n"
)


def scripted_backends(scripts, default=None, model=None):
    return Backends(
        generator=ScriptedGenerator(scripts, default),
        embedder=HashedBagOfWordsEmbedder(dimension=64, seed=0),
        model=model,
    )


# -- golden transcripts ------------------------------------------------------


def test_golden_answer_on_round_one():
    task = TaskRecord(
        id="g-a",
        question="Who wrote Dune?",
        answers=["Frank Herbert"],
        corpus=[
            ("Dune", "Dune was written by Frank Herbert."),
            ("Heretics of Dune", "Brian Herbert continued the series later on."),
        ],
    )
    response = (
        "Based on the document, Dune was written by Frank Herbert. "
        "<ans>Frank Herbert</ans>"
    )
    backends = scripted_backends({"Who wrote Dune?": [response]})
    cfg = RunConfig(max_steps=8, k_docs=2)
    final, transcript_, log_ids = run_task(task, cfg, backends, None)

    expected_user = (
        KNOWLEDGE_HEAD
        + "Document title: Dune\n"
        + "Document content: Dune was written by Frank Herbert.\n"
        + "\n"
        + "Document title: Heretics of Dune\n"
        + "Document content: Brian Herbert continued the series later on.\n"
        + "\n"
        + "Here is the user question:\n"
        + "Who wrote Dune?"
    )
    assert transcript_.turns == [(expected_user, response)]
    assert transcript_.iterations == 1
    assert final == Action("answer", "Frank Herbert")
    assert log_ids == []


def test_golden_keywords_then_answer():
    task = TaskRecord(
        id="g-b", question="What is the capital of France?", answers=["Paris"]
    )
    round1 = "I need more information. <keywords>capital of France</keywords>"
    round2 = "Paris is the capital. <ans>Paris</ans>"
    backends = scripted_backends({"What is the capital of France?": [round1, round2]})
    cfg = RunConfig(max_steps=8, k_docs=0)
    final, transcript_, _ = run_task(task, cfg, backends, None)

    expected_user = (
        KNOWLEDGE_HEAD
        + "\n"
        + "\n"
        + "Here is the user question:\n"
        + "What is the capital of France?"
    )
    assert transcript_.turns == [(expected_user, round1), (expected_user, round2)]
    assert transcript_.iterations == 2
    assert final == Action("answer", "Paris")


def test_golden_cap_exhaustion_knowledge_c8():
    task = TaskRecord(id="g-c8", question="Unanswerable?", answers=["nothing"])
    response = "Still thinking about it."
    backends = scripted_backends({}, default=[response])
    cfg = RunConfig(max_steps=8, k_docs=0)
    final, transcript_, _ = run_task(task, cfg, backends, None)

    expected_user = (
        KNOWLEDGE_HEAD + "\n" + "\n" + "Here is the user question:\n" + "Unanswerable?"
    )
    assert transcript_.turns == [(expected_user, response)] * 8
    assert transcript_.iterations == 8
    assert final.kind != "answer"


def test_golden_cap_exhaustion_reasoning_c3():
    task = TaskRecord(
        id="g-c3", question="How many?", answers=["(A)"], choices=["4", "5"]
    )
    rounds = [
        "Deeper analysis needed. <subquestion>first follow-up</subquestion>",
        "Still unsure. <subquestion>second follow-up</subquestion>",
        "No conclusion yet. <subquestion>third follow-up</subquestion>",
    ]
    backends = scripted_backends({"How many?": rounds})
    cfg = RunConfig(max_steps=3, k_docs=0)
    final, transcript_, _ = run_task(task, cfg, backends, None)

    def reasoning_prompt(previous):
        return (
            REASONING_HEAD
            + previous
            + "\n"
            + "\n"
            + "Here is the user question:\n"
            + "How many?\n"
            + "\n"
            + "Here are the multiple-choice answers:\n"
            + "(A) 4\n(B) 5"
        )

    assert transcript_.turns == [
        (reasoning_prompt(""), rounds[0]),
        (reasoning_prompt(rounds[0]), rounds[1]),
        (reasoning_prompt(rounds[1]), rounds[2]),
    ]
    assert transcript_.iterations == 3
    assert final == Action("subquestion", "third follow-up")


# -- loop behavior -----------------------------------------------------------


def test_standard_equals_lag_kv_with_empty_store(tmp_path, small_model):
    LogStore(tmp_path / "empty", mode="w").close()
    empty = LogStore(tmp_path / "empty", mode="r")
    task = TaskRecord(id="t", question="What is the capital of France?", answers=["Paris"])
    scripts = {
        "What is the capital of France?": [
            "<keywords>france</keywords>",
            "<ans>Paris</ans>",
        ]
    }
    cfg_std = RunConfig(max_steps=8, k_docs=0)
    _, t_std, ids_std = run_task(task, cfg_std, scripted_backends(scripts), None)
    cfg_kv = RunConfig(max_steps=8, k_docs=0, k_logs=3)
    _, t_kv, ids_kv = run_task(
        task, cfg_kv, scripted_backends(scripts, model=small_model), empty
    )
    assert t_std.turns == t_kv.turns
    assert ids_std == ids_kv == []


def test_run_twice_is_byte_identical(small_model):
    task = TaskRecord(id="t", question="What is the capital of France?", answers=["Paris"])
    scripts = {"What is the capital of France?": ["<keywords>x y</keywords>", "<ans>Paris</ans>"]}
    cfg = RunConfig(max_steps=8, k_docs=0)
    _, t1, _ = run_task(task, cfg, scripted_backends(scripts), None)
    _, t2, _ = run_task(task, cfg, scripted_backends(scripts), None)
    assert t1.turns == t2.turns


def test_log_accumulation_is_dedup_and_nondecreasing(tmp_path, embedder):
    store = LogStore(tmp_path / "s", mode="w")
    for key in ("alpha", "beta"):
        store.put(
            LogEntry(
                task_text=key,
                retrieval_key_text=key,
                embedding=embedder.embed(key),
                strategy=SelectionStrategy("last_round_text"),
                text_payload=f"log about {key}",
            )
        )
    store.close()
    store = LogStore(tmp_path / "s", mode="r")
    task = TaskRecord(id="t", question="alpha", answers=["x"])
    scripts = {
        "alpha": ["<keywords>beta</keywords>", "<keywords>alpha</keywords>", "<ans>x</ans>"]
    }
    cfg = RunConfig(max_steps=8, k_docs=0, k_logs=1)
    _, transcript_, log_ids = run_task(task, cfg, scripted_backends(scripts), store)
    assert log_ids == [0, 1]  # alpha first, then beta; re-retrieval adds nothing
    assert transcript_.iterations == 3


def test_text_mode_prepends_log_payloads(tmp_path, embedder):
    store = LogStore(tmp_path / "s", mode="w")
    store.put(
        LogEntry(
            task_text="alpha",
            retrieval_key_text="alpha",
            embedding=embedder.embed("alpha"),
            strategy=SelectionStrategy("all_rounds_text"),
            text_payload="first round thoughts\nlast round thoughts",
        )
    )
    store.close()
    store = LogStore(tmp_path / "s", mode="r")
    task = TaskRecord(id="t", question="alpha", answers=["x"])
    cfg = RunConfig(max_steps=8, k_docs=0, k_logs=1)
    _, transcript_, _ = run_task(
        task, cfg, scripted_backends({"alpha": ["<ans>x</ans>"]}), store
    )
    user = transcript_.turns[0][0]
    assert user.startswith("first round thoughts\nlast round thoughts\n")
    assert "Here is the user question:\nalpha" in user


def test_kv_mode_keeps_prompt_free_of_log_text(tmp_path, small_model, embedder):
    store = LogStore(tmp_path / "s", mode="w")
    entry = encode_log(
        small_model,
        transcript("remember the magic word xyzzy <ans>xyzzy</ans>"),
        SelectionStrategy("last_round"),
        embedder,
    )
    store.put(entry)
    store.close()
    store = LogStore(tmp_path / "s", mode="r")
    task = TaskRecord(id="t", question="magic word", answers=["xyzzy"])
    cfg = RunConfig(max_steps=8, k_docs=0, k_logs=1)
    captured = {}

    class Spy(ScriptedGenerator):
        def generate(self, messages, kv_prefix=None, log_entries=None):
            captured["prefix"] = kv_prefix
            captured["entries"] = list(log_entries or [])
            return super().generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)

    backends = Backends(
        generator=Spy({"magic word": ["<ans>xyzzy</ans>"]}),
        embedder=HashedBagOfWordsEmbedder(dimension=64, seed=0),
        model=small_model,
    )
    _, transcript_, log_ids = run_task(task, cfg, backends, store)
    assert log_ids == [0]
    assert "xyzzy" not in transcript_.turns[0][0]  # log text not in the prompt
    assert captured["prefix"] is not None
    assert captured["prefix"].span_len == entry.kv.span_len
    assert list(captured["prefix"].positions) == list(range(entry.kv.span_len))
    assert captured["entries"][0].entry_id == 0


def test_kv_mode_rejects_mismatched_store(tmp_path):
    # KV logs of other weights: the store implies lag_kv, but its fingerprint
    # is not the generation model's
    seen, unseen = build_reuse_suite()
    foreign = build_model(ModelConfig(weight_seed=1))
    ingest = Backends(FactChainGenerator(), HashedBagOfWordsEmbedder(), model=foreign)
    ingest_tasks(seen[:1], SelectionStrategy("last_round"), ingest, tmp_path / "s", k_docs=1)
    model = build_model(ModelConfig())
    backends = Backends(FactChainGenerator(), HashedBagOfWordsEmbedder(), model=model)
    with LogStore(tmp_path / "s", mode="r") as store:
        with pytest.raises(IncompatibilityError):
            run_task(unseen[0], RunConfig(k_docs=1), backends, store)
    save_tasks(unseen, tmp_path / "unseen.jsonl")
    out = tmp_path / "r.json"
    assert main([
        "run", "--dataset", str(tmp_path / "unseen.jsonl"), "--split", "all",
        "--store", str(tmp_path / "s"), "--generator", "synth-hop", "--out", str(out),
    ]) == 5
    assert not out.exists()


@pytest.fixture(scope="module", params=["head_dim-8", "3-layer"])
def misshapen_store(request, tmp_path_factory):
    """KV logs of another geometry that carry the default model's fingerprint."""
    geometry = {"head_dim-8": ModelConfig(head_dim=8), "3-layer": ModelConfig(num_layers=3)}
    foreign = build_model(geometry[request.param])
    foreign.fingerprint = ModelConfig().fingerprint()
    path = tmp_path_factory.mktemp("misshapen") / request.param
    seen, _ = build_reuse_suite()
    ingest = Backends(FactChainGenerator(), HashedBagOfWordsEmbedder(), model=foreign)
    ingest_tasks(seen[:1], SelectionStrategy("last_round"), ingest, path, k_docs=1)
    return path


@pytest.mark.parametrize("generator", ["synth-hop", "reference"])
def test_run_refuses_kv_of_another_shape(misshapen_store, generator, tmp_path, capsys):
    _, unseen = build_reuse_suite()
    save_tasks(unseen, tmp_path / "unseen.jsonl")
    out = tmp_path / "r.json"
    assert main([
        "run", "--dataset", str(tmp_path / "unseen.jsonl"), "--split", "all",
        "--store", str(misshapen_store), "--generator", generator, "--out", str(out),
    ]) == 5
    assert not out.exists()
    assert "KV shape (layers, KV heads, head dim)" in capsys.readouterr().err


def test_kv_mode_requires_capable_generator(tmp_path, small_model, embedder):
    class NoKv(ScriptedGenerator):
        accepts_kv_prefix = False

    with LogStore(tmp_path / "s", mode="w") as store:
        store.put(kv_entry(small_model, embedder, "q"))
    task = TaskRecord(id="t", question="q", answers=["a"])
    backends = Backends(generator=NoKv({}), embedder=embedder, model=small_model)
    with LogStore(tmp_path / "s", mode="r") as store:
        with pytest.raises(ConfigurationError, match="KV-capable"):
            run_task(task, RunConfig(max_steps=2), backends, store)


def test_kv_mode_requires_a_model(tmp_path, small_model, embedder):
    with LogStore(tmp_path / "s", mode="w") as store:
        store.put(kv_entry(small_model, embedder, "q"))
    task = TaskRecord(id="t", question="q", answers=["a"])
    backends = Backends(generator=ScriptedGenerator({}), embedder=embedder, model=None)
    with LogStore(tmp_path / "s", mode="r") as store:
        with pytest.raises(ConfigurationError, match="needs a model"):
            run_task(task, RunConfig(max_steps=2), backends, store)


@pytest.mark.parametrize("generator", ["synth-hop", "reference"])
def test_k_docs_zero_embeds_no_passage(generator, tmp_path, monkeypatch):
    # a 2-round, store-less run of a task with 6 passages: no retrieval reads
    # them and no log is queried, so nothing is embedded at all
    calls = []
    embed = HashedBagOfWordsEmbedder.embed
    monkeypatch.setattr(
        HashedBagOfWordsEmbedder, "embed", lambda self, text: calls.append(text) or embed(self, text)
    )
    seen, _ = build_reuse_suite()
    save_tasks(seen[:1], tmp_path / "seen.jsonl")
    out = tmp_path / "r.json"
    assert main([
        "run", "--dataset", str(tmp_path / "seen.jsonl"), "--split", "all", "--generator",
        generator, "--k-docs", "0", "--max-steps", "2", "--out", str(out),
    ]) == 0
    assert calls == []
    # the report's bytes are those of the same run with every passage embedded
    digest = "c20671354134a575ab23a6b8d38177c0030100f26b743c1d334924bb06c3a307"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_k_logs_zero_over_a_kv_store_is_standard(tmp_path, small_model, embedder, monkeypatch):
    # no log is read and no prefix is built, whatever the store holds
    with LogStore(tmp_path / "s", mode="w") as store:
        store.put(kv_entry(small_model, embedder, "alpha"))
    retrievals = []
    monkeypatch.setattr(LogStore, "retrieve_topk", lambda *a: retrievals.append(a) or [])
    handed = []

    class Spy(ScriptedGenerator):
        def generate(self, messages, kv_prefix=None, log_entries=None):
            handed.append((kv_prefix, list(log_entries)))
            return super().generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)

    backends = Backends(
        generator=Spy({"alpha": ["<keywords>alpha</keywords>", "<ans>x</ans>"]}),
        embedder=embedder,
        model=small_model,
    )
    task = TaskRecord(id="t", question="alpha", answers=["x"])
    cfg = RunConfig(max_steps=8, k_docs=0, k_logs=0)
    with LogStore(tmp_path / "s", mode="r") as store:
        _, _, log_ids = run_task(task, cfg, backends, store)
    assert retrievals == [] and log_ids == []
    assert handed == [(None, []), (None, [])]


def test_only_the_last_rounds_prefix_is_alive_while_the_next_is_built(
    tmp_path, small_model, embedder, monkeypatch
):
    # two prefixes alive at once make every round map fresh memory (on the
    # hop_reuse workload, once ~27x the page faults), so a build may keep
    # only the last round's prefix, whose leading rows it reuses, and drops
    # it before the generator runs. Rounds 1-3 each retrieve one more log
    # after alpha; round 4's query ranks beta above alpha, so it shares no
    # leading log and frees the last prefix before the build.
    with LogStore(tmp_path / "s", mode="w") as store:
        for text in ("alpha", "beta", "gamma"):
            store.put(kv_entry(small_model, embedder, text))
    built, lasts = [], []
    real = lag.orchestrator.assemble_kv_prefix

    def tracked(entries, last=None):
        assert all(ref() is None for ref in built[:-1])
        if last is None:  # nothing to reuse: the last prefix is gone too
            assert all(ref() is None for ref in built)
        else:
            assert last[1] is built[-1]()
        lasts.append(last is not None)
        prefix = real(entries, last=last)
        built.append(weakref.ref(prefix))
        return prefix

    class Spy(ScriptedGenerator):
        def generate(self, messages, kv_prefix=None, log_entries=None):
            assert kv_prefix is built[-1]()
            assert all(ref() is None for ref in built[:-1])
            return super().generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)

    monkeypatch.setattr(lag.orchestrator, "assemble_kv_prefix", tracked)
    replies = ["<keywords>beta</keywords>", "<keywords>gamma</keywords>",
               "<keywords>alpha beta</keywords>", "<ans>x</ans>"]
    backends = Backends(Spy({"alpha": replies}), embedder, small_model)
    task = TaskRecord(id="t", question="alpha", answers=["x"])
    with LogStore(tmp_path / "s", mode="r") as store:
        _, transcript, log_ids = run_task(
            task, RunConfig(max_steps=8, k_docs=0, k_logs=1), backends, store)
    assert log_ids == [0, 1, 2] and transcript.iterations == 4
    assert lasts == [False, True, True, False]


def test_an_unchanged_prefix_is_handed_over_not_rebuilt(
    tmp_path, small_model, embedder, monkeypatch
):
    # rounds 1 and 2 retrieve alpha alone; round 3 adds beta
    with LogStore(tmp_path / "s", mode="w") as store:
        for text in ("alpha", "beta"):
            store.put(kv_entry(small_model, embedder, text))
    built = []
    real = lag.orchestrator.assemble_kv_prefix
    monkeypatch.setattr(
        lag.orchestrator, "assemble_kv_prefix",
        lambda entries, last=None: built.append(len(entries)) or real(entries, last=last),
    )
    handed = []

    class Spy(ScriptedGenerator):
        def generate(self, messages, kv_prefix=None, log_entries=None):
            handed.append(kv_prefix)
            return super().generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)

    replies = ["<keywords>alpha</keywords>", "<keywords>beta</keywords>", "<ans>x</ans>"]
    backends = Backends(Spy({"alpha": replies}), embedder, small_model)
    task = TaskRecord(id="t", question="alpha", answers=["x"])
    with LogStore(tmp_path / "s", mode="r") as store:
        run_task(task, RunConfig(max_steps=8, k_docs=0, k_logs=1), backends, store)
        both = assemble_kv_prefix([store.get(0), store.get(1)])
    assert built == [1, 2]
    assert handed[1] is handed[0]  # every round is still handed its prefix
    assert handed[2] is not handed[1] and handed[2].equals(both)


def test_backend_failure_carries_partial_transcript():
    class Boom(ScriptedGenerator):
        def __init__(self):
            super().__init__({})
            self.calls = 0

        def generate(self, messages, kv_prefix=None, log_entries=None):
            self.calls += 1
            if self.calls == 2:
                raise RuntimeError("backend down")
            return "<keywords>next</keywords>"

    task = TaskRecord(id="t", question="q", answers=["a"])
    backends = Backends(
        generator=Boom(), embedder=HashedBagOfWordsEmbedder(dimension=64, seed=0)
    )
    with pytest.raises(TaskError) as err:
        run_task(task, RunConfig(max_steps=8, k_docs=0), backends, None)
    assert err.value.iterations == 1


# -- KV prefix assembly ------------------------------------------------------


def kv_entry(small_model, embedder, text, start=0):
    seg, _ = encode(small_model, list(text.encode()), start)
    return LogEntry(
        task_text=text,
        retrieval_key_text=text,
        embedding=normalize(embedder.embed(text)),
        strategy=SelectionStrategy("last_round"),
        kv=seg,
    )


def test_prefix_single_log_at_original_positions(small_model, embedder):
    entry = kv_entry(small_model, embedder, "abcde", start=0)
    prefix = assemble_kv_prefix([entry])
    assert list(prefix.positions) == list(range(5))
    for l in range(prefix.num_layers):
        assert np.abs(prefix.keys[l] - entry.kv.keys[l]).max() <= 1e-6


def test_prefix_two_logs_concatenate_contiguously(small_model, embedder):
    e1 = kv_entry(small_model, embedder, "abc", start=10)
    e2 = kv_entry(small_model, embedder, "vwxyz", start=3)
    prefix = assemble_kv_prefix([e1, e2])
    assert prefix.span_len == 8
    assert list(prefix.positions) == list(range(8))
    for l in range(prefix.num_layers):
        assert np.array_equal(
            prefix.values[l],
            np.concatenate([e1.kv.values[l], e2.kv.values[l]], axis=1),
        )
    # longhand strip/reapply oracle on each segment's part of the prefix
    assert reposition_error(e1.kv, prefix.slice(0, 3)) <= 1e-6
    assert reposition_error(e2.kv, prefix.slice(3, 8)) <= 1e-6


def test_prefix_empty_list():
    assert assemble_kv_prefix([]) is None


@pytest.fixture(scope="module")
def wide_model():
    # room to store logs encoded late in a long trace, at positions >= 3000
    return build_model(replace(SMALL_CONFIG, max_positions=4096))


def stored_logs(model, embedder, layout):
    """One KV entry per (span, start): ``span`` tokens encoded at ``start``;
    a span of 0 stores an empty slice."""
    rng = np.random.default_rng(7)
    logs = []
    for span, start in layout:
        text = "".join(rng.choice(list("abcdefgh"), max(span, 1)))
        entry = kv_entry(model, embedder, text, start)
        logs.append(replace(entry, kv=entry.kv.slice(0, span)))
    return logs


def longhand_prefix(entries):
    """Each entry repositioned to its own slot, then concatenated."""
    parts, offset = [], 0
    for e in entries:
        span = e.kv.span_len
        parts.append(reposition_segment(e.kv, np.arange(offset, offset + span)))
        offset += span
    return KvSegment.concat(parts)


@pytest.mark.parametrize(
    "layout",
    [
        [(5, 7)],
        [(4, 0), (9, 20), (6, 3)],
        [(3 + i, 100 * i) for i in range(10)],
        [(9, 3000), (6, 0)],
        [(4, 2), (0, 50), (6, 11)],
    ],
    ids=["1", "3", "10", "positions-fall-across-entries", "empty-entry-in-middle"],
)
def test_prefix_equals_per_entry_repositioning(wide_model, embedder, layout):
    entries = stored_logs(wide_model, embedder, layout)
    prefix = assemble_kv_prefix(entries)
    longhand = longhand_prefix(entries)
    total = sum(span for span, _ in layout)
    assert np.array_equal(prefix.positions, np.arange(total))
    assert np.array_equal(prefix.positions, longhand.positions)
    for l in range(prefix.num_layers):
        assert np.array_equal(prefix.keys[l], longhand.keys[l])
        assert np.array_equal(prefix.values[l], longhand.values[l])


def test_prefix_repositions_once_per_assembly(wide_model, embedder, monkeypatch):
    calls = []
    monkeypatch.setattr(
        lag.orchestrator,
        "reposition_segment",
        lambda seg, *args, **kwargs: (
            calls.append(seg.span_len), reposition_segment(seg, *args, **kwargs))[1],
    )
    entries = stored_logs(wide_model, embedder, [(4, 9), (0, 0), (5, 3000), (7, 1)])
    assemble_kv_prefix(entries)
    assert calls == [16]
    assemble_kv_prefix(entries[:2])
    assert calls == [16, 4]


def test_prefix_is_none_only_without_tokens(wide_model, embedder):
    empty = stored_logs(wide_model, embedder, [(0, 5), (0, 9)])
    assert assemble_kv_prefix(empty) is None
    one = stored_logs(wide_model, embedder, [(0, 5), (1, 9), (0, 2)])
    assert assemble_kv_prefix(one).span_len == 1


# spans and stored positions of the logs the chained-assembly tests serve:
# empty ones among them, and positions past 3000
CHAIN_LAYOUT = [(4, 9), (0, 0), (5, 3000), (7, 1), (3, 40), (0, 7), (6, 200), (2, 5),
                (9, 77), (1, 0), (5, 2500), (8, 13)]


def served_logs(model, embedder, path):
    """The logs of ``CHAIN_LAYOUT`` as an opened store serves them: read-only
    views over its bytes, the same object for an id on every ``get``."""
    with LogStore(path, mode="w") as store:
        for entry in stored_logs(model, embedder, CHAIN_LAYOUT):
            store.put(entry)
    store = LogStore(path, mode="r")
    return store, [store.get(i) for i in range(store.count)]


def chain_step(rng, order, pool):
    """The next round's order and what changed: a log added first, in the
    middle or last, the order shuffled, or a new task (no last prefix)."""
    kind = str(rng.choice(["first", "middle", "last", "reorder", "new task"]))
    if kind == "new task":
        return kind, [pool[i] for i in rng.permutation(len(pool))[: rng.integers(1, 4)]]
    unused = [e for e in pool if not any(e is o for o in order)]
    if kind == "reorder" or not unused:
        return "reorder", [order[i] for i in rng.permutation(len(order))]
    if kind == "middle" and len(order) < 2:
        kind = "last"
    at = {"first": 0, "last": len(order)}.get(kind)
    if at is None:
        at = int(rng.integers(1, len(order)))
    return kind, order[:at] + [unused[int(rng.integers(len(unused)))]] + order[at:]


def test_chained_assembly_equals_a_build_from_scratch(tmp_path, wide_model, embedder):
    # seeded random sequences of orders: every chained prefix equals one
    # built anew (and the per-entry longhand), bit for bit
    store, pool = served_logs(wide_model, embedder, tmp_path / "s")
    assert not all(e.kv.keys.ctypes.data % 8 == 0 for e in pool)  # unaligned views
    rng = np.random.default_rng(11)
    seen = set()
    order, last = [], None
    for _ in range(300):
        kind, order = chain_step(rng, order, pool)
        if kind == "new task":
            last = None
        kept = 0 if last is None else next(
            (i for i, (a, b) in enumerate(zip(order, last[0])) if a is not b),
            min(len(order), len(last[0])))
        seen.add(kind)
        if any(e.kv.span_len == 0 for e in order[:kept]) and kept < len(order):
            seen.add("empty span in the leading run")
        if sum(e.kv.span_len for e in order[:kept]) > 0:
            seen.add("rows reused")
        prefix = assemble_kv_prefix(order, last=last)
        scratch = assemble_kv_prefix(order)
        longhand = longhand_prefix(order)
        if longhand.span_len == 0:
            assert prefix is None and scratch is None
        else:
            assert prefix.equals(scratch) and prefix.equals(longhand)
        last = (order, prefix)
    store.close()
    assert seen == {"first", "middle", "last", "reorder", "new task",
                    "empty span in the leading run", "rows reused"}


def test_chained_assembly_rotates_only_the_tail(tmp_path, wide_model, embedder, monkeypatch):
    calls = []
    monkeypatch.setattr(
        lag.orchestrator, "reposition_segment",
        lambda seg, *args, **kwargs: (
            calls.append(seg.span_len), reposition_segment(seg, *args, **kwargs))[1],
    )
    store, (a, empty, b, c, d, *_) = served_logs(wide_model, embedder, tmp_path / "s")
    first = assemble_kv_prefix([a, empty, b, c])
    second = assemble_kv_prefix([a, empty, b, d, c], last=([a, empty, b, c], first))
    third = assemble_kv_prefix([d, a], last=([a, empty, b, d, c], second))
    store.close()
    assert calls == [4 + 5 + 7, 3 + 7, 3 + 4]
    assert second.equals(longhand_prefix([a, empty, b, d, c]))
    assert third.equals(longhand_prefix([d, a]))


def test_only_the_same_entry_objects_reuse_the_last_prefix(
    tmp_path, wide_model, embedder
):
    # a last prefix with poisoned rows shows what is read from it: the rows
    # of the same entry objects, and nothing for the same logs served by
    # another store
    path = tmp_path / "s"
    store, pool = served_logs(wide_model, embedder, path)
    other = LogStore(path, mode="r")
    logs = pool[:4]
    twins = [other.get(i) for i in range(4)]
    built = assemble_kv_prefix(logs)
    poisoned = replace(built, keys=np.full_like(built.keys, np.nan),
                       values=np.full_like(built.values, np.nan))
    grown = logs[:2] + [pool[6]] + logs[2:]
    reused = assemble_kv_prefix(grown, last=(logs, poisoned))
    lead = logs[0].kv.span_len + logs[1].kv.span_len
    assert np.isnan(reused.keys[:, :, :lead]).all()
    assert not np.isnan(reused.keys[:, :, lead:]).any()
    fresh = assemble_kv_prefix(twins[:2] + [pool[6]] + twins[2:], last=(logs, poisoned))
    assert fresh.equals(longhand_prefix(grown))
    store.close()
    other.close()


def test_reference_generator_consumes_injected_prefix(tmp_path, small_model, embedder):
    # end-to-end KV mode on the real model: the prompt decodes at positions
    # past the injected prefix and the run is deterministic
    store = LogStore(tmp_path / "s", mode="w")
    store.put(kv_entry(small_model, embedder, "some stored reasoning trace"))
    store.put(kv_entry(small_model, embedder, "another remembered span"))
    store.close()
    store = LogStore(tmp_path / "s", mode="r")
    task = TaskRecord(id="t", question="stored reasoning", answers=["?"])
    backends = Backends(
        generator=ReferenceModelGenerator(small_model, max_new=6),
        embedder=HashedBagOfWordsEmbedder(dimension=64, seed=0),
        model=small_model,
    )
    cfg = RunConfig(max_steps=2, k_docs=0, k_logs=2)
    _, t1, ids1 = run_task(task, cfg, backends, store)
    _, t2, ids2 = run_task(task, cfg, backends, store)
    store.close()
    assert t1.turns == t2.turns
    assert t1.iterations >= 1
    assert sorted(ids1) == sorted(ids2) == [0, 1]


def test_lag_kv_round_validates_its_prefix_once(tmp_path, small_model, embedder, monkeypatch):
    store = LogStore(tmp_path / "s", mode="w")
    for text in ("some stored reasoning trace", "another remembered span", "a third log"):
        store.put(kv_entry(small_model, embedder, text))
    store.close()
    store = LogStore(tmp_path / "s", mode="r")
    validated = []
    validate = KvSegment.validate
    monkeypatch.setattr(
        KvSegment, "validate", lambda seg: (validated.append(seg.span_len), validate(seg))
    )
    backends = Backends(
        generator=ReferenceModelGenerator(small_model, max_new=4),
        embedder=HashedBagOfWordsEmbedder(dimension=64, seed=0),
        model=small_model,
    )
    task = TaskRecord(id="t", question="stored reasoning", answers=["?"])
    cfg = RunConfig(max_steps=1, k_docs=0, k_logs=3)
    _, _, ids = run_task(task, cfg, backends, store)
    assert len(ids) == 3
    # once, on the whole assembled prefix, where it enters the model
    assert validated == [sum(store.get(i).kv.span_len for i in ids)]
    store.close()


def test_nonfinite_stored_kv_is_caught_before_the_forward_pass(
    small_model, embedder, monkeypatch
):
    # a damaged store could hand back a NaN key: assembly passes it through,
    # and the generator refuses the prefix before running the model
    damaged = kv_entry(small_model, embedder, "damaged log", start=4)
    damaged.kv.keys[1][0, 2, 3] = np.nan
    prefix = assemble_kv_prefix([kv_entry(small_model, embedder, "healthy log"), damaged])
    forwards = []
    monkeypatch.setattr(Model, "_forward", lambda *args: forwards.append(args))
    with pytest.raises(InputError):
        ReferenceModelGenerator(small_model, max_new=4).generate(
            [{"role": "user", "content": "question"}], kv_prefix=prefix
        )
    assert forwards == []
