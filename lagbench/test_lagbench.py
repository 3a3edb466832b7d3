"""Tests of the benchmark itself.

    python3 -m pytest -q lagbench/test_lagbench.py

The smoke runs start the real benchmark with a one-second run on each
workload and on the traced run; they take a few minutes the first time,
when the read stores are built.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


def test_benchmark_json_matches_the_benchmark():
    import run

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracing.METRICS
    ]


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_same_seed_same_tasks_and_other_seed_other_tasks(name):
    spec = workloads.SPECS[name]
    a = workloads.sample_tasks(spec, 7)
    b = workloads.sample_tasks(spec, 7)
    c = workloads.sample_tasks(spec, 8)
    assert [t.id for t in a] == [t.id for t in b]
    assert [t.question for t in a] == [t.question for t in b]
    assert {t.id for t in a} != {t.id for t in c}
    assert workloads.pool_digest(spec) == workloads.pool_digest(spec)


@pytest.mark.parametrize("name", [n for n, s in workloads.SPECS.items() if s.reads_store])
def test_every_sampled_task_has_its_kv_prefixes_checked(name):
    spec = workloads.SPECS[name]
    assert spec.prefix_in_ops or spec.warmup_tasks >= spec.sample


def test_prefix_check_catches_a_wrong_prefix():
    from dataclasses import replace

    import numpy as np
    from lag.config import ModelConfig
    from lag.model import build_model, encode
    from lag.rope import reposition_segment
    from lag.segment import KvSegment
    from run import prefixes_match

    model = build_model(ModelConfig())
    a = encode(model, list(range(40, 70)), 5)[0]
    b = encode(model, list(range(90, 110)), 50)[0]

    def prefix(parts, shift=0):
        out, offset = [], 0
        for seg in parts:
            at = np.arange(offset, offset + seg.span_len, dtype=np.int64)
            out.append(replace(reposition_segment(seg, at + shift, model.rope_params),
                               positions=at))
            offset += seg.span_len
        return KvSegment.concat(out)

    def fp(*segs):
        return [workloads.prefix_fingerprint(s) for s in segs]

    good = prefix([a, b])
    want = fp(None, good)
    assert prefixes_match(fp(None, prefix([a, b])), want)
    noisy = replace(good, keys=[k * np.float32(1 + 1e-6) for k in good.keys],
                    values=[v * np.float32(1 - 1e-6) for v in good.values])
    assert prefixes_match(fp(None, noisy), want)
    for wrong in (
        fp(good, good),  # a prefix where there was none
        fp(None, prefix([b, a])),  # entries reordered
        fp(None, prefix([a])),  # an entry dropped
        fp(None, prefix([a, b], shift=1)),  # keys rotated for the wrong positions
        fp(None, replace(good, values=good.keys, keys=good.values)),
        fp(None),
    ):
        assert not prefixes_match(wrong, want)


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_golden_covers_the_pool(name):
    spec = workloads.SPECS[name]
    golden = GOLDEN[name]
    assert golden["pool"] == workloads.pool_digest(spec)
    assert set(golden["tasks"]) == {t.id for t in workloads.run_pool(spec)}


def test_same_seed_gives_the_golden_digests(tmp_path):
    from lag import runner
    from worker import check_ingested

    spec = workloads.SPECS["ingest_text"]
    tasks = workloads.sample_tasks(spec, 11)[:40]
    runs = []
    for i in range(2):
        runner.ingest_tasks(
            tasks, workloads.TEXT_STRATEGY, workloads.make_backends(spec),
            tmp_path / str(i), max_steps=spec.max_steps, k_docs=spec.k_docs,
        )
        runs.append(check_ingested(tmp_path / str(i)))
    assert runs[0] == runs[1] == [GOLDEN["ingest_text"]["tasks"][t.id] for t in tasks]


def test_every_hook_target_resolves():
    missing = [f"{m}.{p}" for m, p, _, _ in tracing.HOOKS if tracing.resolve(m, p) is None]
    assert missing == []


def test_missing_hook_is_reported_not_zero(monkeypatch):
    monkeypatch.setattr(
        tracing, "HOOKS",
        tracing.HOOKS + [("lag.rope", "no_such_function", "rope.cos_sin_table", None)],
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["lag.rope.no_such_function"]
    tracer.hooked.discard("rope.cos_sin_table")
    assert "rope.cos_sin_ms" in tracing.missing_metrics(tracer)
    assert "rope.cos_sin_ms" not in tracing.layer_metrics(tracer, 1)


def test_clocked_tasks_keep_probes_out_of_task_time():
    import time

    from speed import REF_MS, WINDOW, Speed

    speed = Speed()
    probed = []

    def between(busy_s):
        probed.append(busy_s)
        speed.probe(WINDOW)

    clocked = workloads.ClockedTasks(["a", "b"], between=between)
    for _ in clocked:
        time.sleep(0.01)
    clocked.finish()
    clocked.finish()
    assert len(clocked.spans) == len(probed) == 2
    assert [round(b - a, 6) for a, b in clocked.spans] == [round(s, 6) for s in probed]
    assert not any(a <= at <= b for at in speed.at for a, b in clocked.spans)
    mid = sum(clocked.spans[0]) / 2
    assert speed.scale(mid) == REF_MS / sorted(speed.ms[:WINDOW])[WINDOW // 2]


def test_tail_rank_keeps_ten_samples_beyond():
    assert tracing.tail_rank(12) == 50
    assert tracing.tail_rank(40) == 75
    assert tracing.tail_rank(100) == 90
    assert tracing.tail_rank(1000) == 95


def _run(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload):
    out = json.loads(_run(workload, 0)[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_traced_run(workload):
    lines = _run(workload, 1)
    out = json.loads(lines[-1])
    assert out["correct"]
    assert set(out["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert any(line.startswith("# design split holds") for line in lines)
    assert any(line.startswith("# tracing overhead") for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "lagbench").mkdir()
    for path in HERE.glob("*.*"):
        (tmp_path / "lagbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "lagbench/run.py", "--workload", "kv_agent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
