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
from lag.runner import ingest_tasks, run_one, run_tasks
from lag.store import LogStore
from lag.synth import build_reuse_suite


def _never_answers(embedder):
    return Backends(generator=ScriptedGenerator({}, default=["no answer yet"]), embedder=embedder)


KNOWLEDGE_TASK = TaskRecord(id="k", question="q", answers=["a"])
REASONING_TASK = TaskRecord(id="r", question="q", answers=["(A)"], choices=["1", "2"])


def test_steps_for_family_defaults(embedder):
    backends = _never_answers(embedder)
    cfg = RunConfig(k_docs=0)  # no max_steps: the family's cap
    assert run_task(KNOWLEDGE_TASK, cfg, backends)[1].iterations == 8
    assert run_task(REASONING_TASK, cfg, backends)[1].iterations == 3
    cfg = RunConfig(max_steps=5, k_docs=0)
    assert run_task(REASONING_TASK, cfg, backends)[1].iterations == 5


def test_run_tasks_keeps_the_configured_step_cap(embedder):
    report = run_tasks(
        [KNOWLEDGE_TASK, REASONING_TASK], RunConfig(max_steps=2, k_docs=0),
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


class RecordingReferenceGenerator(ReferenceModelGenerator):
    """Keeps the reply of every call and a copy of the KV cache it left."""

    def __init__(self, model, max_new):
        super().__init__(model, max_new)
        self.replies, self.caches = [], []

    def generate(self, messages, kv_prefix=None, log_entries=None):
        text = super().generate(messages, kv_prefix=kv_prefix, log_entries=log_entries)
        cache = self._memo[0]
        live = cache.segment(cache.span_len)
        self.replies.append(text)
        self.caches.append((live.positions.copy(), live.keys.copy(), live.values.copy()))
        return text


def test_the_memo_carried_across_tasks_never_changes_a_reply(tmp_path, small_model):
    # one generator runs every task twice in a row, so each task starts from
    # the previous task's memo; a fresh generator per task starts from none.
    # The small model never answers and its replies hardly depend on the
    # prompt, so the KV each call leaves behind is compared too.
    seen, unseen = build_reuse_suite()
    embedder = HashedBagOfWordsEmbedder(dimension=256, seed=0)
    ingest = Backends(ReferenceModelGenerator(small_model, max_new=8), embedder, model=small_model)
    ingest_tasks(seen, SelectionStrategy("last_round"), ingest, tmp_path / "s",
                 max_steps=3, gen_max_new=8, k_docs=1)
    store = LogStore(tmp_path / "s", mode="r")
    cfg = RunConfig(max_steps=3, k_docs=1, k_logs=3, gen_max_new=8)
    shared = RecordingReferenceGenerator(small_model, max_new=8)
    report = run_tasks(unseen * 2, cfg, Backends(shared, embedder, model=small_model), store)
    fresh_rows, fresh_replies, fresh_caches = [], [], []
    for task in unseen:
        gen = RecordingReferenceGenerator(small_model, max_new=8)
        row = run_one(task, cfg, Backends(gen, embedder, model=small_model), store)
        fresh_rows.append(row.to_json())
        fresh_replies += gen.replies
        fresh_caches += gen.caches
    store.close()
    assert [r.to_json() for r in report.rows] == fresh_rows * 2
    assert len(shared.replies) == 2 * len(unseen) * 3
    assert shared.replies == fresh_replies * 2
    for (pos, keys, values), (want_pos, want_keys, want_values) in zip(
        shared.caches, fresh_caches * 2, strict=True
    ):
        np.testing.assert_array_equal(pos, want_pos)
        np.testing.assert_allclose(keys, want_keys, atol=1e-5)
        np.testing.assert_allclose(values, want_values, atol=1e-5)


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
        tasks, RunConfig(max_steps=2, k_docs=0), backends, None
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
        [task], RunConfig(k_docs=0), backends, None
    )
    assert report.rows[0].em == 1
    assert report.rows[0].f1 == 1.0
    assert report.rows[0].iterations == 1


@pytest.mark.parametrize(
    "stored,k_logs,header",
    [
        (None, 3, ("standard", "")),
        ("empty", 3, ("standard", "")),
        ("last_round", 0, ("standard", "")),
        ("last_round_text", 3, ("lag_text", "last_round_text")),
        ("last_round", 3, ("lag_kv", "last_round")),
    ],
    ids=["no-store", "empty-store", "kv-store-k0", "text-store", "kv-store"],
)
def test_the_store_decides_the_report_mode(tmp_path, small_model, embedder, stored, k_logs,
                                           header):
    task = TaskRecord(id="t", question="q", answers=["a"])
    backends = Backends(ScriptedGenerator({}, default=["<ans>a</ans>"]), embedder,
                        model=small_model)
    store = None
    if stored is not None:
        tasks, strategy = ([], "last_round") if stored == "empty" else ([task], stored)
        ingest_tasks(tasks, SelectionStrategy(strategy), backends, tmp_path / "s", k_docs=0)
        store = LogStore(tmp_path / "s", mode="r")
    report = run_tasks([task], RunConfig(k_logs=k_logs, k_docs=0), backends, store)
    assert (report.mode, report.strategy) == header
    assert report.rows[0].em == 1
