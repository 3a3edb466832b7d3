"""Outside-in span tracer for the traced run.

``lag`` modules import names directly (``from .rope import
reposition_segment``), so a hook replaces each public function on the module
or class where the caller looks it up. A span records its name, start, end,
parent span, task id and phase, plus one optional amount (tokens or bytes)
derived from the call's arguments or result. Spans stay in memory and are
written as JSONL at the end; self time is derived from them.

Byte amounts are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array

def _attention_bytes(args, out):
    # causal_attention_numpy materialises float32 scores [heads, t_new, keys]
    # and a boolean mask [t_new, keys]
    q, k = args[0], args[1]
    heads, t_new = q.shape[0], q.shape[1]
    keys = k.shape[1]
    return heads * t_new * keys * 4 + t_new * keys


def _concat_bytes(args, out):
    return out.payload_nbytes + out.positions.nbytes


def _span_len(args, out):
    return args[0].span_len


def _prefix_tokens(args, out):
    return out.span_len if out is not None else 0


def _new_tokens(args, out):
    return len(args[2])


def _out_len(args, out):
    return len(out)


def _in_len(args, out):
    return len(args[0])


# (module, attribute path, span name, amount function or None)
HOOKS = [
    ("lag.orchestrator", "run_task", "orchestrator.run_task", None),
    ("lag.runner", "run_task", "orchestrator.run_task", None),
    ("lag.runner", "ingest_tasks", "runner.ingest_tasks", None),
    ("lag.orchestrator", "assemble_kv_prefix", "orchestrator.assemble_kv_prefix", _prefix_tokens),
    ("lag.orchestrator", "reposition_segment", "rope.reposition_segment", _span_len),
    ("lag.rope", "cos_sin_table", "rope.cos_sin_table", None),
    ("lag.model", "cos_sin_table", "rope.cos_sin_table", None),
    ("lag.rope", "rotate_pairs", "kernels.rotate_pairs", None),
    ("lag.model", "rotate_pairs", "kernels.rotate_pairs", None),
    ("lag.model", "causal_attention", "kernels.causal_attention", _attention_bytes),
    ("lag.backends", "greedy_decode", "model.greedy_decode", None),
    ("lag.model", "forward_with_prefix", "model.forward_with_prefix", _new_tokens),
    ("lag.codec", "encode", "model.encode", None),
    ("lag.backends", "ReferenceModelGenerator.generate", "backends.generate", None),
    ("lag.synth", "FactChainGenerator.generate", "backends.generate", None),
    ("lag.backends", "HashedBagOfWordsEmbedder.embed", "backends.embed", None),
    ("lag.backends", "CosineDocRetriever.__init__", "backends.doc_index", None),
    ("lag.backends", "CosineDocRetriever.retrieve", "backends.doc_retrieve", None),
    ("lag.segment", "KvSegment.concat", "segment.concat", _concat_bytes),
    ("lag.segment", "KvSegment.validate", "segment.validate", None),
    ("lag.store", "LogStore.__init__", "store.open", None),
    ("lag.store", "LogStore.put", "store.put", None),
    ("lag.store", "LogStore.retrieve_topk", "store.retrieve_topk", None),
    ("lag.store", "LogStore.get", "store.get", None),
    ("lag.runner", "encode_log", "codec.encode_log", None),
    ("lag.store", "serialize", "codec.serialize", _out_len),
    ("lag.store", "deserialize", "codec.deserialize", _in_len),
]

PHASES = ("setup", "build", "ops")


def resolve(module: str, path: str):
    """(owner, attribute name) of a hook target, or None if it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase_id = array("b")
        self.amount = array("d")
        self.cache = array("d")  # prefix span a forward pass attends to
        self.task: list[str | None] = []
        self.phase = "setup"
        self._phase_no = 0
        self.task_id: str | None = None
        self.missing: list[str] = []
        self.hooked: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._last_round: tuple[tuple, bytes] | None = None
        self.rounds_after_first = 0
        self.repeat_rounds = 0
        self.prompt_tokens = 0
        self.shared_tokens = 0

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self._phase_no = PHASES.index(phase)

    def start_task(self, task_id: str) -> None:
        self.task_id = task_id
        self._last_round = None

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        for module, path, name, amount in HOOKS:
            target = resolve(module, path)
            if target is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr = target
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(name, fn, amount)
            if name == "backends.generate":
                wrapped = self._watch_rounds(wrapped)
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, raw))
            self.hooked.add(name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, name, fn, amount):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.phase_id.append(tracer._phase_no)
            tracer.task.append(tracer.task_id)
            tracer.amount.append(0.0)
            tracer.cache.append(0.0)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                stack.pop()
            if amount is not None:
                tracer.amount[i] = amount(args, out)
                if name == "model.forward_with_prefix" and args[1] is not None:
                    tracer.cache[i] = args[1].span_len
            return out

        return traced

    def _watch_rounds(self, generate):
        """Counts, per round of the op phase, whether the ordered log ids and
        the prompt prefix repeat the previous round of the same task."""
        tracer = self

        @functools.wraps(generate)
        def watched(gen, messages, kv_prefix=None, log_entries=None):
            if tracer.phase == "ops":
                ids = tuple(e.entry_id for e in log_entries or ())
                prompt = "\n".join(m["content"] for m in messages).encode("utf-8")
                last = tracer._last_round
                if last is not None:
                    tracer.rounds_after_first += 1
                    tracer.repeat_rounds += ids == last[0]
                    tracer.shared_tokens += _common_prefix(prompt, last[1])
                tracer.prompt_tokens += len(prompt)
                tracer._last_round = (ids, prompt)
            return generate(gen, messages, kv_prefix=kv_prefix, log_entries=log_entries)

        return watched

    # -- derived -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write_jsonl(self, path, header: dict) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "self": own[i],
                            "parent": self.parent[i],
                            "task": self.task[i],
                            "phase": PHASES[self.phase_id[i]],
                            "amount": self.amount[i],
                        }
                    )
                    + "\n"
                )


def _common_prefix(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return n
    lo, hi = 0, n  # a[:lo] == b[:lo], a[:hi] != b[:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid
    return lo


# (name, unit, module, the end-to-end metric @ workload it should move)
_KV, _HOP, _ING = "kv_agent", "hop_reuse", "ingest_text"
METRICS = [
    ("model.prefill_ms", "ms/op", "model", f"op_ms_p50, ops_per_s @ {_KV}"),
    ("model.prefill_tokens", "tokens/op", "model", f"op_ms_p50, ops_per_s @ {_KV}"),
    ("model.decode_ms_per_token", "ms/token", "model", f"op_ms_p50 @ {_KV}"),
    ("model.decode_tokens", "tokens/op", "model", f"op_ms_p50 @ {_KV}"),
    ("model.decode_cache_tokens", "tokens", "model", f"op_ms_p50 @ {_KV}"),
    ("model.decode_ms_per_token.cache0", "ms/token", "model", f"op_ms_p50, peak_rss_mb @ {_KV}"),
    ("model.decode_ms_per_token.cache512", "ms/token", "model", f"op_ms_p50, peak_rss_mb @ {_KV}"),
    ("model.decode_ms_per_token.cache2048", "ms/token", "model", f"op_ms_p50, peak_rss_mb @ {_KV}"),
    ("model.prefill4000_peak_rss_mb", "MB", "model", f"op_ms_p50, peak_rss_mb @ {_KV}"),
    ("kernels.attention_ms", "ms/op", "_kernels", f"op_ms_p50, peak_rss_mb @ {_KV}"),
    ("kernels.attention_score_mb", "MB/op", "_kernels", f"op_ms_p50, peak_rss_mb @ {_KV} (computed)"),
    ("kernels.rotate_ms", "ms/op", "_kernels", f"op_ms_p50 @ {_HOP}"),
    ("kernels.rotate_calls", "calls/op", "_kernels", f"op_ms_p50 @ {_HOP}"),
    ("rope.reposition_ms", "ms/op", "rope", f"op_ms_p50 @ {_HOP}"),
    ("rope.reposition_calls", "calls/op", "rope", f"op_ms_p50 @ {_HOP}"),
    ("rope.reposition_tokens", "tokens/op", "rope", f"op_ms_p50 @ {_HOP}"),
    ("rope.cos_sin_ms", "ms/op", "rope", f"op_ms_p50 @ {_HOP}"),
    ("rope.cos_sin_calls", "calls/op", "rope", f"op_ms_p50 @ {_HOP}"),
    ("segment.concat_ms", "ms/op", "segment", f"op_ms_p50 @ {_KV} (per token), {_HOP} (per round)"),
    ("segment.concat_mb", "MB/op", "segment", f"op_ms_p50 @ {_KV}, {_HOP} (computed)"),
    ("segment.validate_ms", "ms/op", "segment", f"op_ms_p50 @ {_KV}, {_HOP}"),
    ("orchestrator.self_ms", "ms/op", "orchestrator", f"op_ms_p50 @ {_HOP}"),
    ("orchestrator.assemble_prefix_ms", "ms/op", "orchestrator", f"op_ms_p50 @ {_HOP}"),
    ("orchestrator.prefix_tokens", "tokens", "orchestrator", f"op_ms_p50 @ {_HOP}"),
    ("orchestrator.prefix_repeat_frac", "frac", "orchestrator", f"ops_per_s @ {_KV}, {_HOP}"),
    ("orchestrator.prompt_shared_frac", "frac", "orchestrator", f"ops_per_s @ {_KV}, {_HOP}"),
    ("backends.generate_ms", "ms/op", "backends", f"op_ms_p50 @ {_HOP}; ops_per_s @ {_ING}"),
    ("backends.embed_ms", "ms/op", "backends", f"op_ms_p50 @ {_HOP}; ops_per_s @ {_ING}"),
    ("backends.embed_calls", "calls/op", "backends", f"op_ms_p50 @ {_HOP}; ops_per_s @ {_ING}"),
    ("backends.doc_index_ms", "ms/op", "backends", f"op_ms_p50 @ {_HOP}; ops_per_s @ {_ING}"),
    ("backends.doc_retrieve_ms", "ms/op", "backends", f"op_ms_p50 @ {_HOP}; ops_per_s @ {_ING}"),
    ("store.put_ms_p50", "ms", "store", f"ops_per_s @ {_ING}"),
    ("store.put_ms_tail", "ms", "store", f"ops_per_s @ {_ING}"),
    ("store.put_growth", "ratio", "store", f"ops_per_s @ {_ING}"),
    ("store.open_ms", "ms", "store", f"setup_s @ {_KV}, {_HOP}"),
    ("store.retrieve_ms", "ms/op", "store", f"op_ms_p50 @ {_HOP}"),
    ("store.get_ms", "ms/op", "store", f"op_ms_p50 @ {_HOP}"),
    ("codec.encode_log_ms", "ms", "codec", f"ops_per_s @ {_ING}"),
    ("codec.serialize_ms", "ms", "codec", f"ops_per_s @ {_ING}"),
    ("codec.deserialize_ms", "ms", "codec", f"setup_s @ {_KV}, {_HOP} (deserialise on open)"),
    ("codec.mb", "MB", "codec", f"ops_per_s @ {_ING}; setup_s (deserialise on open)"),
    ("setup.import_s", "s", "lag", "setup_s @ all"),
    ("metrics.scipy_import_s", "s", "metrics", "setup_s @ all"),
    ("model.build_s", "s", "model", "setup_s @ all"),
    ("trace.overhead_frac", "frac", "benchmark", "none (traced vs untraced ops_per_s)"),
]

# the hook spans each metric is derived from; a metric with any of them
# missing is reported as missing, never as zero
_NEEDS = {
    "model.": ["model.forward_with_prefix"],
    "kernels.attention": ["kernels.causal_attention"],
    "kernels.rotate": ["kernels.rotate_pairs"],
    "rope.reposition": ["rope.reposition_segment"],
    "rope.cos_sin": ["rope.cos_sin_table"],
    "segment.concat": ["segment.concat"],
    "segment.validate": ["segment.validate"],
    "orchestrator.self": ["orchestrator.run_task"],
    "orchestrator.assemble": ["orchestrator.assemble_kv_prefix"],
    "orchestrator.prefix_tokens": ["orchestrator.assemble_kv_prefix"],
    "orchestrator.p": ["backends.generate"],
    "backends.generate": ["backends.generate"],
    "backends.embed": ["backends.embed"],
    "backends.doc_index": ["backends.doc_index"],
    "backends.doc_retrieve": ["backends.doc_retrieve"],
    "store.put": ["store.put", "runner.ingest_tasks"],
    "store.open": ["store.open"],
    "store.retrieve": ["store.retrieve_topk"],
    "store.get": ["store.get"],
    "codec.encode_log": ["codec.encode_log"],
    "codec.serialize": ["codec.serialize"],
    "codec.deserialize": ["codec.deserialize"],
    "codec.mb": ["codec.serialize"],
}
_UNTRACED = ("model.decode_ms_per_token.", "model.prefill4000", "model.build_s",
             "setup.", "metrics.", "trace.")

# components whose share of op time the traced run prints; a span belongs to
# the first component whose prefix its name starts with
SHARES = [
    ("model", ("model.",)),
    ("assemble_kv_prefix", ("orchestrator.assemble_kv_prefix",)),
    ("store.put", ("store.put",)),
    ("store.read", ("store.retrieve_topk", "store.get")),
    ("docs", ("backends.doc_",)),
    ("embed", ("backends.embed",)),
    ("codec", ("codec.",)),
]
EXPECTED_TOP = {_KV: "model", _HOP: "assemble_kv_prefix", _ING: "store.put"}


def tail_rank(n: int) -> int:
    """Highest of the p50/p75/p90/p95 percentiles with at least ten samples
    beyond it (p50 when there are fewer than twenty samples)."""
    best = 50
    for p in (75, 90, 95):
        if n * (100 - p) / 100 >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Percentile with linear interpolation between closest ranks (the
    median for p=50)."""
    s = sorted(values)
    x = (len(s) - 1) * p / 100
    lo = int(x)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def missing_metrics(tracer: Tracer) -> list[str]:
    out = []
    for name, *_ in METRICS:
        if name.startswith(_UNTRACED):
            continue
        for prefix, needs in _NEEDS.items():
            if name.startswith(prefix) and not all(n in tracer.hooked for n in needs):
                out.append(name)
                break
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer values of the traced phases. Time and count totals of the
    op phase are per op; store/codec call costs are per call."""
    names, own = tracer.names, tracer.self_times()
    ops_phase = PHASES.index("ops")
    by_name: dict[str, list[int]] = {}
    for i, nid in enumerate(tracer.name_id):
        by_name.setdefault(names[nid], []).append(i)

    def spans(name, phases=(ops_phase,)):
        return [i for i in by_name.get(name, []) if tracer.phase_id[i] in phases]

    def dur(i):
        return (tracer.end[i] - tracer.start[i]) * 1e3

    def per_op_ms(name):
        return sum(dur(i) for i in spans(name)) / ops

    def per_op_calls(name):
        return len(spans(name)) / ops

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    fwd = spans("model.forward_with_prefix")
    prefill = [i for i in fwd if tracer.amount[i] > 1]
    decode = [i for i in fwd if tracer.amount[i] == 1]
    assemble = spans("orchestrator.assemble_kv_prefix")
    repo = spans("rope.reposition_segment")
    m = {
        "model.prefill_ms": sum(dur(i) for i in prefill) / ops,
        "model.prefill_tokens": sum(tracer.amount[i] for i in prefill) / ops,
        "model.decode_ms_per_token": mean([dur(i) for i in decode]),
        "model.decode_tokens": len(decode) / ops,
        "model.decode_cache_tokens": mean([tracer.cache[i] for i in decode]),
        "kernels.attention_ms": per_op_ms("kernels.causal_attention"),
        "kernels.attention_score_mb": sum(
            tracer.amount[i] for i in spans("kernels.causal_attention")) / ops / 1e6,
        "kernels.rotate_ms": per_op_ms("kernels.rotate_pairs"),
        "kernels.rotate_calls": per_op_calls("kernels.rotate_pairs"),
        "rope.reposition_ms": per_op_ms("rope.reposition_segment"),
        "rope.reposition_calls": len(repo) / ops,
        "rope.reposition_tokens": sum(tracer.amount[i] for i in repo) / ops,
        "rope.cos_sin_ms": per_op_ms("rope.cos_sin_table"),
        "rope.cos_sin_calls": per_op_calls("rope.cos_sin_table"),
        "segment.concat_ms": per_op_ms("segment.concat"),
        "segment.concat_mb": sum(
            tracer.amount[i] for i in spans("segment.concat")) / ops / 1e6,
        "segment.validate_ms": per_op_ms("segment.validate"),
        "orchestrator.self_ms": sum(
            own[i] for i in spans("orchestrator.run_task")) * 1e3 / ops,
        "orchestrator.assemble_prefix_ms": per_op_ms("orchestrator.assemble_kv_prefix"),
        "orchestrator.prefix_tokens": mean([tracer.amount[i] for i in assemble]),
        "orchestrator.prefix_repeat_frac": (
            tracer.repeat_rounds / tracer.rounds_after_first
            if tracer.rounds_after_first else 0.0
        ),
        "orchestrator.prompt_shared_frac": (
            tracer.shared_tokens / tracer.prompt_tokens if tracer.prompt_tokens else 0.0
        ),
        "backends.generate_ms": per_op_ms("backends.generate"),
        "backends.embed_ms": per_op_ms("backends.embed"),
        "backends.embed_calls": per_op_calls("backends.embed"),
        "backends.doc_index_ms": per_op_ms("backends.doc_index"),
        "backends.doc_retrieve_ms": per_op_ms("backends.doc_retrieve"),
        "store.retrieve_ms": per_op_ms("store.retrieve_topk"),
        "store.get_ms": per_op_ms("store.get"),
    }

    # puts of one ingest_tasks call: the op phase's first one, else the
    # traced store build's
    ingests = spans("runner.ingest_tasks") or spans(
        "runner.ingest_tasks", (PHASES.index("build"),))
    puts = []
    if ingests:
        first = ingests[0]
        puts = [
            dur(i) for i in by_name.get("store.put", [])
            if tracer.start[first] <= tracer.start[i] <= tracer.end[first]
        ]
    tenth = max(1, len(puts) // 10)
    m["store.put_ms_p50"] = percentile(puts, 50) if puts else 0.0
    m["store.put_ms_tail"] = percentile(puts, tail_rank(len(puts))) if puts else 0.0
    m["store.put_growth"] = (
        mean(puts[-tenth:]) / mean(puts[:tenth]) if puts else 0.0
    )

    setup, build = PHASES.index("setup"), PHASES.index("build")
    opens = spans("store.open", (setup, ops_phase))
    m["store.open_ms"] = mean([dur(i) for i in opens])
    written = spans("codec.serialize", (build, ops_phase))
    m["codec.encode_log_ms"] = mean(
        [dur(i) for i in spans("codec.encode_log", (build, ops_phase))])
    m["codec.serialize_ms"] = mean([dur(i) for i in written])
    read_opens = [i for i in opens if tracer.phase_id[i] == setup]
    loaded = spans("codec.deserialize", (setup,))
    m["codec.deserialize_ms"] = (
        sum(dur(i) for i in loaded) / len(read_opens) if read_opens else 0.0
    )
    m["codec.mb"] = mean([tracer.amount[i] for i in written]) / 1e6
    for name in missing_metrics(tracer):
        m.pop(name, None)
    return m


def op_shares(tracer: Tracer) -> dict[str, float]:
    """Share of op-phase time spent in each component (outermost spans of
    the component, so nested calls are not counted twice)."""
    ops_phase = PHASES.index("ops")
    names = tracer.names

    def component(i):
        name = names[tracer.name_id[i]]
        for comp, prefixes in SHARES:
            if name.startswith(prefixes):
                return comp
        return None

    comps = [component(i) for i in range(len(tracer.start))]
    total = 0.0
    busy = {comp: 0.0 for comp, _ in SHARES}
    for i, p in enumerate(tracer.parent):
        if tracer.phase_id[i] != ops_phase:
            continue
        d = tracer.end[i] - tracer.start[i]
        if names[tracer.name_id[i]] in ("orchestrator.run_task", "runner.ingest_tasks") and (
            p < 0
        ):
            total += d
        c = comps[i]
        if c is None:
            continue
        a = p
        while a >= 0 and comps[a] != c:
            a = tracer.parent[a]
        if a < 0:
            busy[c] += d
    return {c: (v / total if total else 0.0) for c, v in busy.items()}
