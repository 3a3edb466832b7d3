"""The benchmark under ``lagbench/`` calls into ``lag`` by name; its own
tests take about a minute, so these quick checks catch a change to ``lag``
that would break it."""

import sys
from pathlib import Path

import numpy as np
import pytest

from lag.config import ModelConfig
from lag.model import build_model, encode
from lag.rope import reposition_segment

LAGBENCH = Path(__file__).resolve().parent.parent / "lagbench"
if str(LAGBENCH) not in sys.path:
    sys.path.append(str(LAGBENCH))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "module,path", [h[:2] for h in tracer.HOOKS], ids=[f"{m}.{p}" for m, p, *_ in tracer.HOOKS]
)
def test_every_tracer_hook_resolves(module, path):
    assert tracer.resolve(module, path) is not None


def test_decode_sweep_runs_on_segment_and_empty_prefixes():
    # cache 0 passes no prefix to forward_with_prefix, cache 16 a KvSegment
    figures = worker.decode_sweep(build_model(ModelConfig()), caches=(0, 16), steps=2)
    assert set(figures) == {
        "model.decode_ms_per_token.cache0", "model.decode_ms_per_token.cache16"}
    assert all(ms > 0 for ms in figures.values())


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_every_workload_builds_its_run_config(name):
    cfg = workloads.run_config(workloads.SPECS[name])
    assert cfg.max_steps == workloads.SPECS[name].max_steps


def test_prefix_check_reposition_call_runs():
    # lagbench's prefix check still passes model.rope_params as a third
    # argument, which reposition_segment ignores
    model = build_model(ModelConfig())
    seg, _ = encode(model, [1, 2, 3], 5)
    moved = reposition_segment(seg, np.arange(3), model.rope_params)
    assert moved.equals(reposition_segment(seg, np.arange(3)))
