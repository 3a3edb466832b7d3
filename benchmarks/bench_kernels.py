"""Time the attention kernel, greedy decoding, KV-prefix assembly, opening a
log store, putting into one and encoding logs, optionally against a baseline
source tree, and write ``BENCH_kernels.json``.

    python3 benchmarks/bench_kernels.py [--baseline OTHER/src]

Workloads, on the default ``ModelConfig`` (4 layers, 4 query heads over
2 KV heads, head_dim 16):

* ``attention.prefill``: ``causal_attention`` at the kv_agent prefill shape
  before the prompt memo, q [4 x 1200 x 16] over 1394 keys (a 194-token KV
  prefix), kept for continuity;
* ``attention.prefill392``: today's kv_agent prefill shape, 392 queries over
  998 + 392 keys;
* ``attention.decode``: one query over 2048 keys;
* ``greedy_decode.prefixN``: 64 greedy tokens after a 16-token prompt and a
  KV prefix of N = 0, 512 and 2048 tokens, copied into a new
  ``Model.prefix_cache`` in each repeat;
* ``model.decode_step``: one ``forward_with_prefix`` of one token over a
  ``Model.prefix_cache`` of 1390 tokens, today's kv_agent decode shape; each
  repeat first truncates the cache back to those 1390 tokens;
* ``model.prefill392``: ``greedy_decode`` of one token after a 392-token
  prompt over a ``Model.prefix_cache`` of 998 tokens, today's kv_agent
  prefill shape: one forward pass of the prompt, whose last row alone is
  read. Each repeat first truncates the cache back to those 998 tokens;
* ``store.open``: ``LogStore(path, "r")`` of a store of 100 KV logs of 133
  tokens each, written once per child into a temporary directory;
* ``assemble.prefixN``: ``assemble_kv_prefix`` over the first N = 3, 10 and
  24 logs of that store (24 logs are ~3200 tokens, the hop_reuse tail
  shape), as the opened store serves them: read-only views over its bytes,
  every other one unaligned, as in hop_reuse. It concatenates the stored
  spans and moves them to their slots in the prefix with one rotation. A
  tree whose ``assemble_kv_prefix`` has a parameter named ``model`` is
  passed the model as the second argument;
* ``assemble.rounds``: the three assemblies of a hop_reuse-like task over
  the same served logs: 3 logs, then 6 and then 9, each round inserting 3
  new logs at fixed ranks (2, 4 and 5, then 3, 6 and 8), so that the
  leading run of unchanged logs is 2, then 3 logs long. Each round is
  passed the last round's entries and prefix as ``last=`` where the tree's
  ``assemble_kv_prefix`` takes it, so such a tree rotates only the logs
  after the leading run; another tree builds every prefix anew;
* ``store.put``: 500 ``put`` calls of one ingest_text-sized text log (about
  1.9 KB serialized, a 256-dim embedding) into a new store in a temporary
  directory, timed together with the store's creation and close;
* ``generate.rounds4``: the four rounds of a kv_agent task on one new
  ``ReferenceModelGenerator``: ``generate`` of 64 tokens after the same
  194-token KV prefix, with a ~800-token prompt head followed by one to four
  documents of ~100 tokens, one more each round. The generator carries its
  draft count across the four calls: each of the last three starts from
  the count the calls before it left;
* ``generate.repeat4``: four identical ``generate`` calls of 64 tokens after
  the same 194-token KV prefix on one new ``ReferenceModelGenerator`` (the
  kv_agent rounds whose messages repeat), so calls 2-4 are exact repeats
  that return the first call's output with no forward pass;
* ``encode_log.last_round``: ``encode_log`` with the ``last_round`` strategy
  over the transcripts of four ``lag.synth`` fact-chain tasks of 2 to 5
  hops (124 to 529 trace tokens), run once per child with
  ``FactChainGenerator``: the KV write path of ``lag ingest``.

Every measurement runs in a fresh child interpreter with one BLAS thread;
the attention kernel may still run its KV-head groups on the other usable
CPUs, whose count the report records. With ``--baseline`` the children
alternate between this checkout's ``src/`` and the baseline tree, round by
round, so that a drift in the host's speed falls on both sides alike, and
each row reports its paired wins (``src_wins``): the rounds, of ``ROUNDS``,
in which this checkout's child was faster than the baseline's. The
quartiles over the rounds can miss an offset between two children that
the speed probe leaves; the paired wins count each round as one
comparison. A child also runs lagbench's speed probe
(``lagbench/speed.py``, imported as it is) before its first row, after
every 30 ms of timed repeats and after its last row, and scales each
repeat's time to the probe's reference speed by the probes around it, as
lagbench scales an op; ``store.put``, which writes files, has probes of
its own that also rewrite a file. Each figure is the median over the rounds of each
child's median of its scaled repeats (``ms``), with its quartiles over the
rounds (``ms_q1``, ``ms_q3``) and the same median of the unscaled repeats
(``raw_ms``) beside it. ``minflt`` is the median over the rounds
of the minor page faults per repeat, the ``ru_minflt`` delta over a child's
timed repeats: a count, so it does not drift with the host's speed. After
the timed repeats, each row runs one more call under a ``sys.setprofile``
hook, which counts its Python calls (``py_calls``) and C calls
(``c_calls``), the row's own function included, and one more under
``tracemalloc``, for the peak KiB it allocates (``peak_kb``); neither
slows a timed repeat. The profile hook sees only the calling thread, so
``py_calls`` and ``c_calls`` leave out the calls a worker thread makes;
``peak_kb`` and ``minflt`` cover every thread. These are medians over the
rounds too. Only
names both trees define are used:
``lag._kernels.causal_attention``, ``lag.model.{build_model, encode,
forward_with_prefix, greedy_decode}``, ``Model.prefix_cache``,
``lag.segment.KvCache.truncate``,
``lag.codec.{LogEntry, SelectionStrategy, encode_log}``,
``lag.orchestrator.{assemble_kv_prefix, RunConfig, run_task}``,
``lag.backends.{Backends, HashedBagOfWordsEmbedder, ReferenceModelGenerator}``,
``lag.synth.{FactChainGenerator, build_reuse_suite}`` and
``lag.store.LogStore`` (its constructor, ``put`` and ``get``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_kernels.json"
ROUNDS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _counted(fn) -> dict[str, float]:
    """The Python and C calls that one call of ``fn`` makes, ``fn`` itself
    included, under a profile hook; then the peak KiB that one more call
    allocates, under tracemalloc."""
    calls = {"call": 0, "c_call": 0}

    def hook(frame, event, arg):
        if event in calls and arg is not sys.setprofile:
            calls[event] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"py_calls": calls["call"], "c_calls": calls["c_call"], "peak_kb": peak / 1024}


def _timed(fn, repeat: int, speed) -> dict:
    """The start and end of ``repeat`` calls after a warm-up, with the speed
    probes that ``speed`` owes after each, and the minor page faults per
    call over them; then, after the timed calls, the counts of
    ``_counted``."""
    fn()  # warm-up
    spans = []
    faults = _minflt()
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        spans.append((t0, t1))
        speed.after(t1 - t0)
    faults = _minflt() - faults
    return {"spans": spans, "speed": speed, "minflt": faults / repeat, **_counted(fn)}


def _scaled(row: dict) -> dict[str, float]:
    """A row's median ms at the probe's reference speed and unscaled."""
    spans, speed = row.pop("spans"), row.pop("speed")
    raw = [(b - a) * 1e3 for a, b in spans]
    scaled = [ms * speed.scale((a + b) / 2) for ms, (a, b) in zip(raw, spans)]
    return {"ms": statistics.median(scaled), "raw_ms": statistics.median(raw), **row}


def measure() -> dict[str, dict[str, float]]:
    """One child's figures for the lag on its sys.path."""
    import numpy as np

    sys.path.append(str(ROOT / "lagbench"))  # after src/, so it shadows nothing
    from speed import Speed

    from lag._kernels import causal_attention
    from lag.backends import Backends, HashedBagOfWordsEmbedder, ReferenceModelGenerator
    from lag.codec import LogEntry, SelectionStrategy, encode_log
    from lag.config import ModelConfig
    from lag.model import build_model, encode, forward_with_prefix, greedy_decode
    from lag.orchestrator import RunConfig, assemble_kv_prefix, run_task
    from lag.store import LogStore
    from lag.synth import FactChainGenerator, build_reuse_suite

    rng = np.random.default_rng(0)
    cfg = ModelConfig()
    heads, kv_heads, d = cfg.num_heads, cfg.num_kv_heads, cfg.head_dim

    def qkv(t_new, n_keys):
        return (
            rng.standard_normal((heads, t_new, d)).astype(np.float32),
            rng.standard_normal((kv_heads, n_keys, d)).astype(np.float32),
            rng.standard_normal((kv_heads, n_keys, d)).astype(np.float32),
        )

    speed = Speed()
    speed.probe()
    out = {}
    q, k, v = qkv(1200, 1394)
    out["attention.prefill"] = _timed(lambda: causal_attention(q, k, v, 194), 7, speed)
    q, k, v = qkv(392, 998 + 392)
    out["attention.prefill392"] = _timed(lambda: causal_attention(q, k, v, 998), 20, speed)
    q, k, v = qkv(1, 2048)
    out["attention.decode"] = _timed(lambda: causal_attention(q, k, v, 2047), 200, speed)

    model = build_model(cfg)
    prompt = rng.integers(0, 256, 16).tolist()
    for n in (0, 512, 2048):
        prefix = encode(model, rng.integers(0, 256, n).tolist(), 0)[0] if n else None

        def decode():
            greedy_decode(model, model.prefix_cache(prefix), prompt, 64)

        out[f"greedy_decode.prefix{n}"] = _timed(decode, 3, speed)

    context = model.prefix_cache(encode(model, rng.integers(0, 256, 1390).tolist(), 0)[0])

    def step():
        context.truncate(1390)
        forward_with_prefix(model, context, prompt[:1], 1390)

    out["model.decode_step"] = _timed(step, 200, speed)

    # a generator of its own, so the rows after this one draw what they drew
    # before it was added
    prefill_rng = np.random.default_rng(392)
    prefilled = model.prefix_cache(
        encode(model, prefill_rng.integers(0, 256, 998).tolist(), 0)[0])
    long_prompt = prefill_rng.integers(0, 256, 392).tolist()

    def prefill():
        prefilled.truncate(998)
        greedy_decode(model, prefilled, long_prompt, 1)

    out["model.prefill392"] = _timed(prefill, 20, speed)

    # logs stored from later rounds of their transcripts, so every one moves
    logs = [
        LogEntry(
            task_text=f"log {i}", retrieval_key_text=f"log {i}",
            embedding=np.zeros(4, dtype=np.float32),
            strategy=SelectionStrategy("last_round"),
            kv=encode(model, rng.integers(0, 256, 133).tolist(), 150 + 200 * i)[0],
        )
        for i in range(10)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        with LogStore(Path(tmp) / "store", "w") as store:
            for i in range(100):
                store.put(logs[i % 10])
        out["store.open"] = _timed(lambda: LogStore(Path(tmp) / "store", "r"), 10, speed)
        opened = LogStore(Path(tmp) / "store", "r")
    served = [opened.get(i) for i in range(24)]
    # an older tree's assemble_kv_prefix takes the model, which it does not
    # read; a newer one takes the last round's entries and prefix
    params = inspect.signature(assemble_kv_prefix).parameters
    extra = (model,) if "model" in params else ()
    for n in (3, 10, 24):
        out[f"assemble.prefix{n}"] = _timed(
            lambda: assemble_kv_prefix(served[:n], *extra), 50, speed
        )

    def insert(logs, new, ranks):
        logs = list(logs)
        for rank, log in zip(ranks, new):
            logs.insert(rank, log)
        return logs

    # a hop_reuse-like task's rounds: 3, 6 and 9 logs, each round's new logs
    # at fixed ranks among the last round's, after a leading run of 2, then 3
    task_rounds = [served[:3]]
    task_rounds.append(insert(task_rounds[-1], served[3:6], (2, 4, 5)))
    task_rounds.append(insert(task_rounds[-1], served[6:9], (3, 6, 8)))

    def assemble_rounds():
        last = None
        for logs in task_rounds:
            chained = {"last": last} if "last" in params else {}
            last = (logs, assemble_kv_prefix(logs, *extra, **chained))

    out["assemble.rounds"] = _timed(assemble_rounds, 30, speed)

    # a last_round_text log of an ingest_text task: the last message is both
    # the retrieval key and the payload
    message = "The documents do not say yet. <keywords>the r3 of e17</keywords> " * 4
    embedding = rng.standard_normal(256)
    text_log = LogEntry(
        task_text="What is the r1 of the r2 of the r3 of e14? " * 6,
        retrieval_key_text=message,
        embedding=(embedding / np.linalg.norm(embedding)).astype(np.float32),
        strategy=SelectionStrategy("last_round_text"),
        text_payload=message,
    )

    def puts():
        with tempfile.TemporaryDirectory() as tmp, LogStore(Path(tmp) / "s", "w") as store:
            for _ in range(500):
                store.put(text_log)

    # the puts write files, so their probe rewrites a file too, as
    # lagbench's does for a workload whose ops write
    with tempfile.TemporaryDirectory() as tmp:
        writes = Speed(tmp)
        writes.probe()
        out["store.put"] = _timed(puts, 3, writes)
        writes.probe()

    log = encode(model, rng.integers(0, 256, 194).tolist(), 0)[0]
    head = "Answer from the information below only; do not guess. " * 15
    docs = [f"\n\nDocument {i}: the r{i} of e{i} is e{i + 1}. " + "filler " * 11
            for i in range(4)]
    prompts = [
        [{"role": "user", "content": head + "".join(docs[: r + 1]) + "\n\nquestion?"}]
        for r in range(4)
    ]

    def rounds():
        gen = ReferenceModelGenerator(model, max_new=64)
        for messages in prompts:
            gen.generate(messages, kv_prefix=log)

    out["generate.rounds4"] = _timed(rounds, 3, speed)

    def repeats():
        gen = ReferenceModelGenerator(model, max_new=64)
        for _ in range(4):
            gen.generate(prompts[-1], kv_prefix=log)

    out["generate.repeat4"] = _timed(repeats, 3, speed)

    # the KV write path: finished synth-hop transcripts, encoded as lag ingest
    # does, with the default full-trace encoding
    embedder = HashedBagOfWordsEmbedder(dimension=256, seed=0)
    hop_backends = Backends(FactChainGenerator(), embedder, model)
    transcripts = [
        run_task(task, RunConfig(max_steps=8, k_docs=1), hop_backends, None)[1]
        for hops in (2, 3, 4, 5)
        for task in build_reuse_suite((0,), hops)[0]
    ]
    strategy = SelectionStrategy("last_round")

    def encode_logs():
        for transcript in transcripts:
            encode_log(model, transcript, strategy, embedder)

    out["encode_log.last_round"] = _timed(encode_logs, 10, speed)
    speed.probe()
    return {name: _scaled(row) for name, row in out.items()}


def cpu_name() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_child(src: Path) -> dict[str, dict[str, float]]:
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__, "--measure"], env=env, capture_output=True,
        text=True, check=True,
    )
    return json.loads(proc.stdout)


def summary(figures: list[dict[str, float]]) -> dict[str, float]:
    """One row of one side over the rounds: the median scaled ms with its
    quartiles, and the medians of the unscaled ms, the page faults per
    repeat, the calls per call and the peak KiB."""
    ms = [f["ms"] for f in figures]
    q1, _, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    medians = {
        name: statistics.median(f[name] for f in figures)
        for name in ("raw_ms", "minflt", "py_calls", "c_calls", "peak_kb")
    }
    return {"ms": statistics.median(ms), "ms_q1": q1, "ms_q3": q3, **medians}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--baseline", type=Path, help="a baseline tree's src/ directory")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps(measure()))
        return

    sides = {"src": ROOT / "src"}
    if args.baseline:
        sides["baseline"] = args.baseline.resolve()
    runs: dict[str, list[dict[str, dict[str, float]]]] = {side: [] for side in sides}
    order = list(sides)
    for r in range(ROUNDS):
        for side in order if r % 2 == 0 else order[::-1]:
            runs[side].append(run_child(sides[side]))
            print(f"round {r + 1}/{ROUNDS} {side}", file=sys.stderr)

    results = {
        side: {name: summary([run[name] for run in rs]) for name in rs[0]}
        for side, rs in runs.items()
    }
    # per row, the rounds in which this checkout's child was the faster
    wins = {
        name: sum(a[name]["ms"] < b[name]["ms"] for a, b in zip(runs["src"], runs["baseline"]))
        for name in results["src"]
    } if args.baseline else {}
    head = ": ms [q1, q3] raw_ms minflt py/c calls peak_kb"
    print(f"{'workload':<24}" + "".join(f"{side + head:>72}" for side in results)
          + ("  src wins" if wins else ""))
    for name in results["src"]:
        cells = (
            f"{r['ms']:.3f} [{r['ms_q1']:.3f}, {r['ms_q3']:.3f}] {r['raw_ms']:.3f} "
            f"{r['minflt']:.1f} {r['py_calls']:.0f}/{r['c_calls']:.0f} {r['peak_kb']:.1f}"
            for r in (results[side][name] for side in results)
        )
        won = f"{wins[name]:>8}/{ROUNDS}" if wins else ""
        print(f"{name:<24}" + "".join(f"{cell:>72}" for cell in cells) + won)
    report = {
        "unit": "ms at the speed probe's reference speed (lagbench/speed.py REF_MS); "
                "raw_ms unscaled; minflt in minor page faults per repeat; py_calls "
                "and c_calls per call; peak_kb in KiB per call",
        "rounds": ROUNDS,
        "blas_threads": 1,
        "machine": {
            "cpu": cpu_name(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "python": platform.python_version(),
        },
        "results": results,
        "src_wins": wins,
        "runs": runs,
    }
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
