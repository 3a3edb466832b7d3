"""Record golden outputs for every pool task of every workload.

    python3 lagbench/make_golden.py [workload ...]

Writes ``golden.json``: per workload, the pool digest and, per task id, the
answer, transcript digest and per-round KV prefix fingerprints (read
workloads) or the digest of the stored entry (ingest_text). Re-record only
at a commit whose outputs are meant to change; the benchmark counts every op
that differs as failed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in the benchmark's workers

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from lag import runner  # noqa: E402
from lag.store import LogStore  # noqa: E402
from worker import check_ingested  # noqa: E402


def record(name: str, scratch: Path) -> dict:
    spec = workloads.SPECS[name]
    backends = workloads.make_backends(spec)
    tasks = workloads.run_pool(spec)
    out = {"pool": workloads.pool_digest(spec), "tasks": {}}
    if spec.reads_store:
        workloads.build_store(spec, backends, scratch / name)
        store = LogStore(scratch / name, "r")
        cfg = workloads.run_config(spec)
        for task in tasks:
            rec = workloads.read_op(task, cfg, backends, store, prefixes=True)
            if "error" in rec:
                raise SystemExit(f"{task.id}: {rec['error']}")
            out["tasks"][task.id] = [rec["answer"], rec["digest"], rec["prefixes"]]
    else:
        runner.ingest_tasks(
            tasks, workloads.TEXT_STRATEGY, backends, scratch / name,
            max_steps=spec.max_steps, k_docs=spec.k_docs,
        )
        digests = check_ingested(scratch / name)
        if digests is None:
            raise SystemExit("entries file differs from its re-serialized entries")
        out["tasks"] = {t.id: d for t, d in zip(tasks, digests, strict=True)}
    return out


def main() -> None:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    work = HERE.parent / ".lagbench"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=work))
    try:
        for name in sys.argv[1:] or list(workloads.SPECS):
            golden[name] = record(name, scratch)
            print(f"{name}: {len(golden[name]['tasks'])} tasks")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
