"""The lag benchmark: one workload, one seed, one closed-loop client.

    python3 lagbench/run.py --workload kv_agent --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/``. Each run

* builds (or reuses from ``.lagbench/``) the workload's read store,
* times set-up in fresh interpreters and reports the median,
* runs the workload for ``--seconds`` of op time in a fresh worker process
  with one BLAS thread, checking every op's output against ``golden.json``,
* prints every end-to-end metric with its unit and sample count, the
  environment, and as its last line one JSON object.

Every time it reports is scaled to a reference speed of the machine by a
fixed probe run between the ops and around each set-up (``speed.py``), so
that the host's drift does not swamp a change to the program; the raw
figures are printed on a comment line beside them.

With ``--trace 1`` it prints the per-layer metrics instead: the worker runs
the workload untraced and then traced (spans in ``.lagbench/*.jsonl``), and
the run adds an import-time split, a decode sweep over cache sizes and the
peak memory of a 4000-token prefill in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".lagbench"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402  (stdlib only)
from speed import Speed  # noqa: E402

WORKLOADS = ("kv_agent", "hop_reuse", "ingest_text")
READS = ("kv_agent", "hop_reuse")
BLAS_THREADS = "1"
SETUP_RUNS = 6
SETUP_WINDOW = 100  # speed probes before and after each set-up
CHILD_TIMEOUT_S = 170

# (name, unit) of the end-to-end metrics, as in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("rounds_per_task", "rounds"),
    ("store_bytes", "bytes"),
]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(args[:2])} exited with {proc.returncode}")
    return proc.stdout


def source_key(workload: str) -> str:
    """Identifies a read store: the program sources and the workload code."""
    h = hashlib.sha256(workload.encode())
    files = sorted((ROOT / "src" / "lag").rglob("*.py")) + [HERE / "workloads.py"]
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: str) -> Path:
    """The workload's read store, built once per source version."""
    store = WORK / f"store-{workload}-{source_key(workload)}"
    if not store.is_dir():
        for old in WORK.glob(f"store-{workload}-*"):
            shutil.rmtree(old, ignore_errors=True)
        tmp = WORK / f"build-{workload}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        run_child([str(WORKER), "prepare", "--workload", workload, "--store", str(tmp)],
                  timeout=800)
        tmp.rename(store)
    return store


def setup_probe(workload: str, store: Path | None, speed: Speed) -> tuple[float, float, dict]:
    """Wall time from starting a fresh interpreter to ready for the first op,
    scaled to the reference speed by the probes just before and after (more
    than between ops, as one set-up is a single sample); the same
    time unscaled; and the worker's own split of it."""
    cmd = [sys.executable, str(WORKER), "setup", "--workload", workload]
    if store is not None:
        cmd += ["--store", str(store)]
    speed.probe(SETUP_WINDOW)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.wait()
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    speed.probe(SETUP_WINDOW)
    return ready * speed.scale(start + ready / 2, SETUP_WINDOW), ready, json.loads(line)


def import_split() -> dict:
    """``python -X importtime``: cumulative seconds of ``import lag`` and of
    the scipy imports made while importing it."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import lag"], cwd=ROOT,
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("import lag failed")
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        stripped = name.strip()
        rows.append((len(name) - len(name.lstrip()), stripped, int(cum) / 1e6))
    lag_s = sum(c for _, n, c in rows if n == "lag")
    scipy = [(d, c) for d, n, c in rows if n == "scipy" or n.startswith("scipy.")]
    top = min((d for d, _ in scipy), default=0)
    return {"lag_s": lag_s, "scipy_s": sum(c for d, c in scipy if d == top)}


PREFIX_RTOL = 1e-4


def prefixes_match(got: list, want: list) -> bool:
    """Whether two lists of ``workloads.prefix_fingerprint`` agree: digests
    exactly, norms and projections within ``PREFIX_RTOL`` of the norm."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if g is None or w is None:
            if not (g is None and w is None):
                return False
        elif g[0] != w[0] or any(
            abs(g[i] - w[i]) > PREFIX_RTOL * w[norm]
            for norm in (1, 3) for i in (norm, norm + 1)
        ):
            return False
    return True


def check_outputs(workload: str, result: dict, records: list[dict]) -> list[str]:
    """Ids of the ops whose output differs from golden.json (or raised).
    Read ops are checked on answer and transcript, and where they carry them
    on their rounds' KV prefixes; ingest ops on their stored entry."""
    golden = json.loads((HERE / "golden.json").read_text()).get(workload, {})
    if golden.get("pool") != result["pool"]:
        print(f"# golden.json does not cover this task pool: {workload}")
        return [r["id"] for r in records]
    expected = golden["tasks"]
    failed = []
    for rec in records:
        if "error" in rec:
            print(f"# op {rec['id']} failed: {rec['error']}")
            failed.append(rec["id"])
            continue
        want = expected.get(rec["id"])
        if workload not in READS:
            ok = rec["digest"] == want
        else:
            ok = want is not None and [rec["answer"], rec["digest"]] == want[:2] and (
                "prefixes" not in rec or prefixes_match(rec["prefixes"], want[2]))
        if not ok:
            print(f"# op {rec['id']}: output differs from golden.json")
            failed.append(rec["id"])
    return failed


TIMES = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail")


def end_to_end(probes: list, result: dict, key: str = "norm_ms") -> tuple[dict, list[str]]:
    """The end-to-end metrics; the times from the records' ``key`` and the
    set-up probes' matching figure (scaled to the reference speed, or raw
    with ``key="ms"``)."""
    records = result["records"]
    n = len(records)
    lat = [r[key] for r in records]
    rank = tracing.tail_rank(n)
    beyond = sum(1 for x in lat if x > tracing.percentile(lat, rank))
    values = {
        "setup_s": statistics.median(p[0 if key == "norm_ms" else 1] for p in probes),
        "ops_per_s": n / (sum(lat) / 1e3),
        "op_ms_p50": tracing.percentile(lat, 50),
        "op_ms_tail": tracing.percentile(lat, rank),
        "peak_rss_mb": result["peak_rss_mb"],
        "rounds_per_task": result["rounds"] / n,
        "store_bytes": float(result["store_bytes"]),
    }
    notes = {
        "setup_s": f"median of {len(probes)} fresh interpreters",
        "ops_per_s": f"n={n} ops in {sum(lat) / 1e3:.2f} s",
        "op_ms_p50": f"n={n}",
        "op_ms_tail": f"p{rank}, n={n}, {beyond} beyond",
        "peak_rss_mb": "getrusage of the worker",
        "rounds_per_task": f"n={n}",
        "store_bytes": "store on disk",
    }
    lines = [
        f"{name:<16} {values[name]:>14.4f} {unit:<7} ({notes[name]})"
        for name, unit in END_TO_END
    ]
    return values, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "lag" / "__init__.py").is_file():
        print(f"error: no lag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(args, run_dir: Path) -> int:
    workload = args.workload
    store = prepare(workload) if workload in READS else None
    # half the set-up probes before the workload and half after, so a slow
    # spell of the machine does not land on all of them
    speed = Speed()
    probes = [setup_probe(workload, store, speed) for _ in range(SETUP_RUNS // 2)]

    out = run_dir / "result.json"
    cmd = [str(WORKER), "measure", "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out)]
    if store is not None:
        cmd += ["--store", str(store)]
    trace_file = WORK / f"trace-{workload}.jsonl"
    if args.trace:
        cmd += ["--trace", str(trace_file)]
    run_child(cmd)
    result = json.loads(out.read_text())
    probes += [setup_probe(workload, store, speed) for _ in range(SETUP_RUNS - len(probes))]

    records = result["warmup"] + result["records"] + result.get("traced_records", [])
    failed = check_outputs(workload, result, records)
    values, lines = end_to_end(probes, result)
    raw, _ = end_to_end(probes, result, "ms")
    answered = [r for r in result["records"] if "em" in r]
    em = sum(r["em"] for r in answered) / len(answered) if answered else float("nan")

    print(f"# lag benchmark: workload {workload}, seed {args.seed}, "
          f"{args.seconds:g} s, closed loop, 1 client, BLAS threads {BLAS_THREADS}")
    if args.trace:
        metrics = trace_report(workload, result, probes, raw)
    else:
        for line in lines:
            print(line)
        print("# times above at the reference speed (speed.REF_MS); unscaled: " + ", ".join(
            f"{name} {raw[name]:.4f}" for name in TIMES))
        print(f"# speed probe: median {result['probe_ms']:.4f} ms in the worker, "
              f"{statistics.median(speed.ms):.4f} ms around set-up")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    with_prefixes = sum(1 for r in records if "prefixes" in r)
    print(f"fail_frac        {len(failed) / len(records):>14.4f} "
          f"({len(failed)}/{len(records)} ops, outputs checked against golden.json, "
          f"{with_prefixes} also on their KV prefixes)")
    if answered:
        print(f"em_mean          {em:>14.4f}         (n={len(answered)})")
    print("# env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def trace_report(workload: str, result: dict, probes, values) -> dict:
    layers = dict(result["layers"])
    split = import_split()
    rss = json.loads(run_child([str(WORKER), "prefill-rss"]))
    untraced = values["ops_per_s"]
    traced = len(result["traced_records"]) / result["traced_busy_s"]
    layers.update({
        "setup.import_s": statistics.median(p["import_s"] for _, _, p in probes),
        "metrics.scipy_import_s": split["scipy_s"],
        "model.build_s": statistics.median(p["build_s"] for _, _, p in probes),
        "model.prefill4000_peak_rss_mb": rss["peak_rss_mb"],
        "trace.overhead_frac": 1.0 - traced / untraced,
    })
    metrics = {}
    for name, unit, module, moves in tracing.METRICS:
        if name not in layers:
            print(f"{name:<38} {'missing':>12} {unit:<9} [{module} -> {moves}]")
            continue
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"{name:<38} {layers[name]:>12.4f} {unit:<9} [{module} -> {moves}]")
    for hook in result["missing_hooks"]:
        print(f"# hook target missing: {hook}")
    print(f"# import lag {split['lag_s']:.3f} s under -X importtime, of which scipy "
          f"{split['scipy_s']:.3f} s")
    print(f"# tracing overhead: {traced:.4f} ops/s traced vs {untraced:.4f} untraced "
          f"({result['spans']} spans)")
    shares = result["shares"]
    print("# share of op time: " + ", ".join(
        f"{c} {v:.1%}" for c, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    top = max(shares, key=shares.get)
    expected = tracing.EXPECTED_TOP[workload]
    model_idle = workload == "kv_agent" or shares["model"] == 0.0
    verdict = "holds" if top == expected and model_idle else "does not hold"
    print(f"# design split {verdict}: largest share {top} (expected {expected}), "
          f"model share {shares['model']:.1%}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
