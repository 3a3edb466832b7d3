"""Batch execution: build a log store from tasks, run tasks into a report."""

from __future__ import annotations

from .actions import ANSWER
from .backends import Backends
from .codec import SelectionStrategy, encode_log
from .datasets import REASONING, TaskRecord
from .metrics import EvalReport, TaskRow, choice_accuracy, exact_match, f1
from .orchestrator import STANDARD, RunConfig, TaskError, mode_of, run_task
from .store import LogStore


def _score(task: TaskRecord, predicted: str | None) -> tuple[int, float]:
    if predicted is None:
        return 0, 0.0
    if task.family == REASONING:
        em = choice_accuracy(predicted, task.answers[0])
        return em, float(em)
    return exact_match(predicted, task.answers), f1(predicted, task.answers)


def run_one(
    task: TaskRecord,
    cfg: RunConfig,
    backends: Backends,
    store: LogStore | None,
) -> TaskRow:
    try:
        final, transcript, _ = run_task(task, cfg, backends, store)
        answered = final.kind == ANSWER
        predicted = final.payload if answered else None
        iterations = transcript.iterations
    except TaskError as err:
        answered, predicted, iterations = False, None, err.iterations
    em, score_f1 = _score(task, predicted)
    return TaskRow(
        id=task.id,
        predicted=predicted,
        gold=task.answers,
        em=em,
        f1=score_f1,
        iterations=iterations,
        answered=answered,
    )


def run_tasks(
    tasks: list[TaskRecord],
    cfg: RunConfig,
    backends: Backends,
    store: LogStore | None,
    label: str = "",
) -> EvalReport:
    """Run the tasks in order, one at a time, and collect a report. Per-task
    backend failures become unanswered rows. The report names the mode
    (``mode_of``) and every strategy the store holds; a standard run, none."""
    rows = [run_one(task, cfg, backends, store) for task in tasks]
    mode = mode_of(store, cfg.k_logs)
    held = {e.strategy.name for e in store.scan()} if mode != STANDARD else ()
    return EvalReport(mode=mode, strategy="+".join(sorted(held)), rows=rows, label=label)


def ingest_tasks(
    tasks: list[TaskRecord],
    strategy: SelectionStrategy,
    backends: Backends,
    store_path,
    max_steps: int | None = None,
    gen_max_new: int = 64,  # read by nothing; lagbench/workloads.py still passes it
    k_docs: int = 2,
) -> LogStore:
    """Run tasks without log access (the store is being built), encode each
    transcript under the strategy, and append it to the store. Entries are
    stored for every completed task, right or wrong."""
    # a bad argument fails here, before the store is created
    cfg = RunConfig(max_steps=max_steps, k_docs=k_docs)
    store = LogStore(store_path, mode="w")
    try:
        for task in tasks:
            _, transcript, _ = run_task(task, cfg, backends, None)
            entry = encode_log(
                backends.model,
                transcript,
                strategy,
                backends.embedder,
                task_text=task.question,
            )
            store.put(entry)
    finally:
        store.close()
    return store
