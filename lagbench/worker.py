"""Child processes of the benchmark; ``run.py`` starts each in a fresh
interpreter so that set-up and peak memory belong to the work measured.

    worker.py setup   --workload W [--store DIR]      time to ready, once
    worker.py prepare --workload W --store DIR        build a read store
    worker.py measure --workload W --seed N --seconds S --out FILE
                      [--store DIR] [--trace FILE.jsonl]
    worker.py prefill-rss                             peak RSS of a 4000-token prefill
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_setup(args) -> None:
    import lag  # noqa: F401

    t_import = time.perf_counter()
    from lag.config import ModelConfig
    from lag.model import build_model
    from lag.store import LogStore

    build_model(ModelConfig())
    t_build = time.perf_counter()
    if args.store:
        LogStore(args.store, "r")
    t_open = time.perf_counter()
    print(json.dumps({
        "import_s": t_import - _T0,
        "build_s": t_build - t_import,
        "open_s": t_open - t_build,
    }), flush=True)


def cmd_prepare(args) -> None:
    import workloads

    spec = workloads.SPECS[args.workload]
    workloads.build_store(spec, workloads.make_backends(spec), args.store)


def cmd_prefill_rss(args) -> None:
    import numpy as np
    from lag.config import ModelConfig
    from lag.model import build_model, encode

    model = build_model(ModelConfig())
    tokens = np.random.default_rng(0).integers(0, 256, 4000).tolist()
    encode(model, tokens)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)


def environment() -> dict:
    import numpy
    import scipy
    from lag import _kernels

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernels_backend": _kernels.backend_name(),
        "cpu": cpu,
    }


def run_reads(tasks, cfg, backends, store, seconds, whole_passes=False, tracer=None,
              prefixes=False, speed=None):
    """Closed loop over the sample (cycled) until the ops have taken
    ``seconds``; the op in flight when time is up completes and counts. With
    ``whole_passes`` the loop also finishes its pass over the sample, so every
    run times the same mix of tasks. With ``speed`` the machine's speed is
    probed between ops and every record gets its time scaled to the
    reference speed (``norm_ms``). Returns the records and the ops' time."""
    import workloads

    records = []
    busy = 0.0
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        i += 1
        if tracer is not None:
            tracer.start_task(task.id)
        a = time.perf_counter()
        rec = workloads.read_op(task, cfg, backends, store, prefixes)
        b = time.perf_counter()
        rec["ms"] = (b - a) * 1e3
        rec["at"] = (a + b) / 2
        records.append(rec)
        busy += b - a
        if speed is not None:
            speed.after(b - a)
        if busy >= seconds and not (whole_passes and i % len(tasks)):
            break
    if speed is not None:
        for rec in records:
            rec["norm_ms"] = rec["ms"] * speed.scale(rec["at"])
    return records, busy


def check_ingested(path: Path) -> list[str] | None:
    """Digest of each stored entry, in insertion order, or None when the
    entries file is not exactly the concatenation of the re-serialized
    entries (with it, the digests pin the file's bytes)."""
    import workloads
    from lag.codec import serialize
    from lag.store import ENTRIES_NAME, LogStore

    blobs = [serialize(e) for e in LogStore(path, "r").scan()]
    if (path / ENTRIES_NAME).read_bytes() != b"".join(blobs):
        return None
    return [workloads.digest(b) for b in blobs]


_STORE_NO = itertools.count()


def run_ingest(spec, tasks, backends, seconds, scratch: Path, tracer=None, speed=None):
    """Repeated ``ingest_tasks`` calls, each into a fresh store, until the
    tasks have taken ``seconds`` (at least one call). Each task is timed by
    the task list, which also probes the machine's speed between tasks when
    ``speed`` is given. The stores are kept for ``check_ingest``, which runs
    once peak memory has been read."""
    import workloads
    from lag import runner

    calls, busy, store_bytes = [], 0.0, 0
    generator = workloads.CountingGenerator()
    backends.generator = generator
    on_next = (lambda task: tracer.start_task(task.id)) if tracer is not None else None
    between = speed.after if speed is not None else None
    while not calls or busy < seconds:
        path = scratch / f"ingest-{next(_STORE_NO)}"
        shutil.rmtree(path, ignore_errors=True)
        clocked = workloads.ClockedTasks(tasks, on_next, between)
        error = None
        try:
            runner.ingest_tasks(
                clocked, workloads.TEXT_STRATEGY, backends, path,
                max_steps=spec.max_steps, k_docs=spec.k_docs,
            )
        except Exception as err:  # the call's tasks count as failed ops
            error = f"{type(err).__name__}: {err}"
        clocked.finish()
        busy += sum(b - a for a, b in clocked.spans)
        calls.append((path, [t.id for t in tasks], clocked.spans, error))
        if not store_bytes and error is None:
            store_bytes = sum(f.stat().st_size for f in path.iterdir())
    times = []
    for path, ids, spans, error in calls:
        ms = [(b - a) * 1e3 for a, b in spans]
        norm = [m * speed.scale((a + b) / 2) for m, (a, b) in zip(ms, spans)] if speed else ms
        times.append((path, ids, list(zip(ms, norm)), error))
    return times, busy, store_bytes, generator.calls


def check_ingest(calls) -> list[dict]:
    """One record per ingested task: its times and its stored entry's
    digest, or the error that kept it from the store. Removes the stores."""
    records = []
    for path, ids, times, error in calls:
        digests = check_ingested(path) if error is None else []
        if digests is None:
            digests, error = [], "entries file differs from its re-serialized entries"
        for j, (task_id, (ms, norm_ms)) in enumerate(zip(ids, times)):
            rec = {"id": task_id, "ms": ms, "norm_ms": norm_ms}
            if j < len(digests):
                rec["digest"] = digests[j]
            else:
                rec["error"] = error or "entry missing from the store"
            records.append(rec)
        shutil.rmtree(path, ignore_errors=True)
    return records


def decode_sweep(model, caches=(0, 512, 2048), steps=32) -> dict[str, float]:
    """Median ms per decoded token with a KV cache of each size."""
    import numpy as np
    from lag.model import encode, forward_with_prefix

    rng = np.random.default_rng(0)
    out = {}
    for size in caches:
        cache = encode(model, rng.integers(0, 256, size).tolist())[0] if size else None
        _, cache = forward_with_prefix(model, cache, [65], size)
        times = []
        for pos in range(size + 1, size + 1 + steps):
            a = time.perf_counter()
            _, cache = forward_with_prefix(model, cache, [66], pos)
            times.append((time.perf_counter() - a) * 1e3)
        out[f"model.decode_ms_per_token.cache{size}"] = statistics.median(times)
    return out


def cmd_measure(args) -> None:
    import workloads
    from lag.config import ModelConfig
    from lag.model import build_model
    from lag.store import LogStore
    from speed import Speed

    spec = workloads.SPECS[args.workload]
    model = build_model(ModelConfig())
    backends = workloads.make_backends(spec, model)
    store = LogStore(args.store, "r") if spec.reads_store else None
    tasks = workloads.sample_tasks(spec, args.seed)
    scratch = Path(args.out).parent
    result = {"env": environment(), "pool": workloads.pool_digest(spec)}

    def measure(tasks, seconds, tracer=None, prefixes=False, speed=None):
        """(records, busy s, rounds); on ingest_text the records are the
        unchecked ingest calls, for ``checked``."""
        if spec.reads_store:
            records, busy = run_reads(
                tasks, workloads.run_config(spec), backends, store, seconds,
                spec.whole_passes, tracer, prefixes, speed)
            return records, busy, sum(r.get("rounds", 0) for r in records)
        calls, busy, store_bytes, rounds = run_ingest(
            spec, tasks, backends, seconds, scratch, tracer, speed)
        result["store_bytes"] = store_bytes
        return calls, busy, rounds

    def checked(records):
        return records if spec.reads_store else check_ingest(records)

    # let caches fill and lazy set-up finish before timing; checked like any
    # op, and on the KV prefixes it assembles too
    warmup = measure(tasks[: spec.warmup_tasks], 0, prefixes=True)[0]
    if spec.reads_store:
        result["store_bytes"] = sum(f.stat().st_size for f in Path(args.store).iterdir())
    speed = Speed(None if spec.reads_store else scratch)
    speed.probe()
    records, busy, rounds = measure(tasks, args.seconds, prefixes=spec.prefix_in_ops,
                                    speed=speed)
    result.update(busy_s=busy, rounds=rounds, peak_rss_mb=peak_rss_mb(),
                  probe_ms=statistics.median(speed.ms))
    result.update(warmup=checked(warmup), records=checked(records))

    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        if spec.reads_store:
            store = LogStore(args.store, "r")
            tracer.set_phase("build")
            build_dir = scratch / "traced-build"
            shutil.rmtree(build_dir, ignore_errors=True)
            workloads.build_store(spec, backends, build_dir, limit=spec.trace_build)
            shutil.rmtree(build_dir, ignore_errors=True)
        tracer.set_phase("ops")
        traced, traced_busy, _ = measure(tasks, args.seconds, tracer)
        tracer.uninstall()
        traced = checked(traced)
        layers = tracing.layer_metrics(tracer, len(traced))
        layers.update(decode_sweep(model))
        tracer.write_jsonl(args.trace, {"workload": args.workload, "seed": args.seed,
                                        "env": result["env"]})
        result.update(
            traced_records=traced,
            traced_busy_s=traced_busy,
            layers=layers,
            shares=tracing.op_shares(tracer),
            missing_hooks=tracer.missing,
            spans=len(tracer.start),
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--store")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("prepare")
    p.add_argument("--workload", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_prepare)
    p = sub.add_parser("measure")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--store")
    p.add_argument("--out", required=True)
    p.add_argument("--trace")
    p.set_defaults(func=cmd_measure)
    p = sub.add_parser("prefill-rss")
    p.set_defaults(func=cmd_prefill_rss)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
