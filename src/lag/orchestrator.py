"""The agentic loop: iterative generation with document retrieval, log
retrieval, prompt assembly, and KV-prefix injection.

One run executes at most ``max_steps`` generations. Each round retrieves
documents and logs for the current action text (initially the task itself),
folds the accumulated documents into the prompt, injects accumulated logs
in the mode that ``mode_of`` derives from the store alone (as a repositioned
KV prefix, or as prepended text over text logs), and extracts the next
action from the model's response. The loop stops on an answer action or
when the step cap is hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .actions import ANSWER, Action, extract_action
from .backends import Backends, CosineDocRetriever
from .codec import AgentTranscript, LogEntry, SelectionStrategy
from .config import TEXT_FINGERPRINT
from .datasets import KNOWLEDGE, REASONING, TaskRecord
from .errors import BackendError, ConfigurationError, InputError
from .prompts import assemble_prompt
from .rope import reposition_segment
from .segment import KvSegment
from .store import LogStore

# how logs reach a task: not at all, as a KV prefix, or as prompt text; what
# a log holds is the store's strategy
STANDARD = "standard"
LAG_KV = "lag_kv"
LAG_TEXT = "lag_text"

# step caps from the evaluation protocol: multi-hop tasks get 8, reasoning 3
DEFAULT_MAX_STEPS = {KNOWLEDGE: 8, REASONING: 3}


@dataclass
class RunConfig:
    max_steps: int | None = None  # None: DEFAULT_MAX_STEPS[task.family]
    k_logs: int = 3
    k_docs: int = 2
    # read by nothing; lagbench/workloads.py still passes them
    mode: str | None = None
    strategy: SelectionStrategy = field(default_factory=SelectionStrategy)
    gen_max_new: int = 64

    def __post_init__(self) -> None:
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        if self.k_logs < 0 or self.k_docs < 0:
            raise ConfigurationError("k_logs and k_docs must be >= 0")


class TaskError(BackendError):
    """Backend failure mid-run; carries the number of rounds completed."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


def assemble_kv_prefix(
    entries: list[LogEntry],
    last: tuple[list[LogEntry], KvSegment | None] | None = None,
) -> KvSegment | None:
    """Concatenate KV log payloads and move them into one prefix.

    Entries are injected in the given order (callers order them by
    descending retrieval similarity, ties by id) and occupy positions
    0..total_span, so the prompt that follows starts at total_span. ``last``
    is the previous round's (entries, prefix) of the same task: the leading
    run of entries that are the same objects in the same order holds the
    same slots there, so its rows are copied from that prefix, and only the
    stored spans after it are rotated, in place, in one
    ``reposition_segment`` call. A token's rotation depends only on its
    stored and new positions, so one rotation of the concatenated stored
    spans equals rotating each span to its slot and concatenating the
    results, bit for bit, and a row copied from the last prefix equals one
    rotated anew. The first round is the case of an empty leading run. No
    entry is checked here: the store holds one KV geometry and ``run_task``
    checks it against the model once.
    """
    last_entries, last_prefix = last or ((), None)
    kept = 0
    for entry, old in zip(entries, last_entries):
        if entry is not old:
            break
        kept += 1
    lead = sum(e.kv.span_len for e in entries[:kept])
    head = [last_prefix.view(0, lead)] if lead else []
    stored = KvSegment.concat(head + [e.kv for e in entries[kept:]])
    total = stored.span_len
    if total == 0:
        return None
    tail = stored.view(lead, total)
    reposition_segment(tail, np.arange(lead, total), out=tail.keys)
    return replace(stored, positions=np.arange(total))


def mode_of(log_store: LogStore | None, k_logs: int) -> str:
    """How logs reach a task: not at all with no store, an empty store or
    ``k_logs == 0``; as prompt text over text logs; as a KV prefix otherwise."""
    if log_store is None or log_store.count == 0 or k_logs == 0:
        return STANDARD
    return LAG_TEXT if log_store.fingerprint == TEXT_FINGERPRINT else LAG_KV


def run_task(
    task: TaskRecord,
    cfg: RunConfig,
    backends: Backends,
    log_store: LogStore | None = None,
) -> tuple[Action, AgentTranscript, list[int]]:
    """Execute one task; returns (final action, transcript, retrieved ids).
    A generator failure raises a ``TaskError`` with the rounds completed,
    except an ``InputError`` (bad local data), which is raised as it is."""
    mode = mode_of(log_store, cfg.k_logs)
    if mode == LAG_KV:
        if not backends.generator.accepts_kv_prefix:
            raise ConfigurationError(f"mode {mode} needs a KV-capable generator")
        if backends.model is None:
            raise ConfigurationError(f"mode {mode} needs a model for the prefix")
        backends.model.check_kv(log_store.get(0).kv)  # the store holds one geometry

    corpus = (task.corpus or []) if cfg.k_docs > 0 else []  # k_docs 0 embeds no passage
    retriever = CosineDocRetriever(corpus, backends.embedder)
    uses_docs = bool(retriever.passages)
    uses_logs = mode != STANDARD

    action_text = task.question
    previous_response = ""
    docs: dict[tuple[str, str], None] = {}  # an ordered set, first retrieval first
    logs: dict[int, float] = {}  # id -> latest similarity, first retrieval first
    turns: list[tuple[str, str]] = []
    kv_prefix, prefix_order, prefix_entries = None, [], []  # the last prefix and its logs
    final_action = Action()
    max_steps = cfg.max_steps if cfg.max_steps is not None else DEFAULT_MAX_STEPS[task.family]

    while len(turns) < max_steps:
        if uses_docs or uses_logs:  # one query embedding serves both retrievers
            query = backends.embedder.embed(action_text)
        if uses_docs:
            docs.update(dict.fromkeys(retriever.retrieve(query, cfg.k_docs)))
        if uses_logs:
            for res in log_store.retrieve_topk(query, cfg.k_logs):
                logs[res.entry_id] = res.similarity
        order = sorted(logs, key=lambda i: (-logs[i], i))
        ordered = [log_store.get(i) for i in order]

        text_logs: list[str] = []
        if mode == LAG_KV and order != prefix_order:
            # the same ids in the same order hand over the last round's prefix;
            # a new order reuses the last prefix's rows of its leading logs, and
            # one that shares no leading log frees it before the next is built
            last = (prefix_entries, kv_prefix) if order[:1] == prefix_order[:1] else None
            kv_prefix = None
            kv_prefix = assemble_kv_prefix(ordered, last=last)
            prefix_order, prefix_entries, last = order, ordered, None
        elif mode == LAG_TEXT:
            text_logs = [e.text_payload for e in ordered]

        messages = assemble_prompt(task, list(docs), text_logs, previous_response)
        try:
            response = backends.generator.generate(
                messages, kv_prefix=kv_prefix, log_entries=ordered
            )
        except InputError:  # such as non-finite stored KV: it fails the run
            raise
        except Exception as err:
            raise TaskError(f"generator failed on task {task.id}: {err}", len(turns)) from err

        turns.append((messages[-1]["content"], response))
        act = extract_action(response)
        previous_response = response
        final_action = act
        if act.kind == ANSWER:
            break
        if act.payload:
            action_text = act.payload
        # kind 'none': the action text is unchanged and the loop continues

    transcript = AgentTranscript(turns, final_action)
    return final_action, transcript, list(logs)
