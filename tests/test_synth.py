"""The constructed reuse suite: log injection must cut iteration counts."""

import pytest

from lag.backends import Backends, HashedBagOfWordsEmbedder
from lag.codec import SelectionStrategy
from lag.orchestrator import RunConfig
from lag.runner import ingest_tasks, run_tasks
from lag.store import LogStore
from lag.synth import FactChainGenerator, build_reuse_suite, chain_question, parse_chain


def test_chain_question_round_trip():
    rels = ["r0", "r1", "r2"]
    q = chain_question(rels, "e0")
    assert q == "What is the r2 of the r1 of the r0 of e0?"
    assert parse_chain(q) == (rels, "e0")


def test_suite_shapes():
    seen, unseen = build_reuse_suite()
    assert len(seen) == len(unseen) == 4
    for task in seen + unseen:
        assert len(task.corpus) == 6  # 4 hops + 2 distractors
        assert task.answers[0].startswith("e")


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory, small_model):
    seen, unseen = build_reuse_suite()
    backends = Backends(
        generator=FactChainGenerator(),
        embedder=HashedBagOfWordsEmbedder(dimension=256, seed=0),
        model=small_model,
    )
    store_path = tmp_path_factory.mktemp("reuse") / "store"
    ingest_tasks(
        seen,
        SelectionStrategy("last_round", "full_trace"),
        backends,
        store_path,
        max_steps=8,
        k_docs=1,
    )
    store = LogStore(store_path, mode="r")
    standard = run_tasks(
        unseen, RunConfig(max_steps=8, k_docs=1), backends, None
    )
    lag_kv = run_tasks(
        unseen, RunConfig(max_steps=8, k_docs=1, k_logs=3), backends, store
    )
    store.close()
    return standard, lag_kv


def test_standard_mode_needs_one_round_per_hop(suite_runs):
    standard, _ = suite_runs
    assert [r.iterations for r in standard.rows] == [4, 4, 4, 4]
    assert all(r.em == 1 for r in standard.rows)


def test_flagship_drops_four_to_two(suite_runs):
    standard, lag_kv = suite_runs
    flagship_std = next(r for r in standard.rows if r.id == "f0-unseen")
    flagship_lag = next(r for r in lag_kv.rows if r.id == "f0-unseen")
    assert flagship_std.iterations == 4
    assert flagship_lag.iterations == 2


def test_mean_iterations_strictly_lower_with_logs(suite_runs):
    standard, lag_kv = suite_runs
    assert lag_kv.mean_iterations < standard.mean_iterations
    assert all(r.em == 1 for r in lag_kv.rows)  # reuse never breaks answers
