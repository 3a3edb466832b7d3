import numpy as np
import pytest

from lag.backends import (
    Backends,
    HashedBagOfWordsEmbedder,
    ReferenceModelGenerator,
    ScriptedGenerator,
)
from lag.codec import SelectionStrategy
from lag.datasets import TaskRecord
from lag.orchestrator import RunConfig, run_task
from lag.runner import ingest_tasks, run_tasks
from lag.store import LogStore
from lag.synth import FactChainGenerator, build_reuse_suite


def _never_answers(embedder):
    return Backends(generator=ScriptedGenerator({}, default=["no answer yet"]), embedder=embedder)


KNOWLEDGE_TASK = TaskRecord(id="k", question="q", answers=["a"])
REASONING_TASK = TaskRecord(id="r", question="q", answers=["(A)"], choices=["1", "2"])


def test_steps_for_family_defaults(embedder):
    backends = _never_answers(embedder)
    cfg = RunConfig(mode="standard", k_docs=0)  # no max_steps: the family's cap
    assert run_task(KNOWLEDGE_TASK, cfg, backends)[1].iterations == 8
    assert run_task(REASONING_TASK, cfg, backends)[1].iterations == 3
    cfg = RunConfig(mode="standard", max_steps=5, k_docs=0)
    assert run_task(REASONING_TASK, cfg, backends)[1].iterations == 5


def test_run_tasks_keeps_the_configured_step_cap(embedder):
    report = run_tasks(
        [KNOWLEDGE_TASK, REASONING_TASK], RunConfig(mode="standard", max_steps=2, k_docs=0),
        _never_answers(embedder), None,
    )
    assert [r.iterations for r in report.rows] == [2, 2]


def test_ingest_stores_unanswered_transcripts(tmp_path, embedder):
    # no gold filtering: exhausted tasks are logged too
    tasks = [TaskRecord(id=str(i), question=f"q {i}", answers=["never"]) for i in range(3)]
    backends = Backends(
        generator=ScriptedGenerator({}, default=["thinking, no answer"]),
        embedder=embedder,
    )
    store = ingest_tasks(
        tasks, SelectionStrategy("last_round_text"), backends, tmp_path / "s",
        max_steps=2, k_docs=0,
    )
    assert store.count == 3
    reopened = LogStore(tmp_path / "s", mode="r")
    assert reopened.count == 3
    reopened.close()


def test_run_tasks_parallel_matches_serial(tmp_path, small_model):
    seen, unseen = build_reuse_suite()
    backends = Backends(
        generator=FactChainGenerator(),
        embedder=HashedBagOfWordsEmbedder(dimension=256, seed=0),
        model=small_model,
    )
    ingest_tasks(seen, SelectionStrategy("last_round"), backends, tmp_path / "s",
                 max_steps=8, k_docs=1)
    store = LogStore(tmp_path / "s", mode="r")
    cfg = RunConfig(mode="lag_kv", max_steps=8, k_docs=1, k_logs=3)
    serial = run_tasks(unseen, cfg, backends, store, jobs=1)
    parallel = run_tasks(unseen, cfg, backends, store, jobs=4)
    store.close()
    assert [r.to_json() for r in serial.rows] == [r.to_json() for r in parallel.rows]


class RecordingReferenceGenerator(ReferenceModelGenerator):
    """Keeps (prompt, prefix positions, response) of every call."""

    def __init__(self, model, max_new):
        super().__init__(model, max_new)
        self.calls = []

    def generate(self, messages, kv_prefix=None, log_entries=None):
        text = super().generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)
        span = None if kv_prefix is None else kv_prefix.positions.tolist()
        self.calls.append((messages[-1]["content"], span, text))
        return text


def test_reference_generator_parallel_matches_serial(tmp_path, small_model):
    # each thread reuses its own previous round's KV; none sees another's
    seen, unseen = build_reuse_suite()
    embedder = HashedBagOfWordsEmbedder(dimension=256, seed=0)
    ingest = Backends(ReferenceModelGenerator(small_model, max_new=8), embedder, model=small_model)
    ingest_tasks(seen, SelectionStrategy("last_round"), ingest, tmp_path / "s",
                 max_steps=3, gen_max_new=8, k_docs=1)
    store = LogStore(tmp_path / "s", mode="r")
    cfg = RunConfig(mode="lag_kv", max_steps=3, k_docs=1, k_logs=3, gen_max_new=8)
    reports, calls = [], []
    for jobs in (1, 4):
        gen = RecordingReferenceGenerator(small_model, max_new=8)
        backends = Backends(gen, embedder, model=small_model)
        reports.append(run_tasks(unseen * 2, cfg, backends, store, jobs=jobs))
        calls.append(sorted(gen.calls, key=repr))
    store.close()
    serial, parallel = reports
    assert [r.to_json() for r in serial.rows] == [r.to_json() for r in parallel.rows]
    assert len(calls[0]) == 2 * len(unseen) * 3 and calls[0] == calls[1]


def test_backend_failures_become_unanswered_rows(embedder):
    class FailsOnSecondTask(ScriptedGenerator):
        def __init__(self):
            super().__init__({"q 0": ["<ans>fine</ans>"]}, default=["x"])

        def generate(self, messages, kv_prefix=None, log_entries=None):
            if "q 1" in messages[-1]["content"]:
                raise RuntimeError("backend down")
            return super().generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)

    tasks = [
        TaskRecord(id="0", question="q 0", answers=["fine"]),
        TaskRecord(id="1", question="q 1", answers=["lost"]),
    ]
    backends = Backends(generator=FailsOnSecondTask(), embedder=embedder)
    report = run_tasks(
        tasks, RunConfig(mode="standard", max_steps=2, k_docs=0), backends, None
    )
    assert report.rows[0].em == 1
    assert report.rows[1].answered is False
    assert report.rows[1].predicted is None


def test_choice_tasks_scored_by_letter(embedder):
    task = TaskRecord(id="mc", question="pick", answers=["(B)"], choices=["x", "y"])
    backends = Backends(
        generator=ScriptedGenerator({"pick": ["sure <ans>(b)</ans>"]}),
        embedder=embedder,
    )
    report = run_tasks(
        [task], RunConfig(mode="standard", k_docs=0), backends, None
    )
    assert report.rows[0].em == 1
    assert report.rows[0].f1 == 1.0
    assert report.rows[0].iterations == 1
