"""Work budget of the reference generator on a small kv_agent-like run.

Transcripts do not show whether the generator reused anything: a generator
with no memo writes the same ones. Forward-pass counts do, and they are
deterministic, so a lost reuse fails here instead of only in a timed run.
"""

import os

import numpy as np
import pytest

import lag._kernels
import lag.model
import lag.orchestrator
from lag.backends import Backends, HashedBagOfWordsEmbedder, ReferenceModelGenerator
from lag.codec import SelectionStrategy
from lag.config import ModelConfig
from lag.model import build_model, greedy_decode
from lag.orchestrator import LAG_KV, RunConfig
from lag.runner import ingest_tasks, run_tasks
from lag.store import LogStore
from lag.synth import build_reuse_suite
from tests.oracles import stepwise_greedy_decode

# Recorded at commit 1cc223a and re-pinned when greedy_decode began to check
# drafted tokens in batches. A change that moves them must say why the new
# counts are right. Each of the 4 decoding calls prefills its prompt (1012
# tokens, then 208 after the memo's reuse) and decodes 64 copies of one byte:
# 1 token from the prefill, 2 passes of 1 token before a 2-gram repeats, then
# drafts of 1, 2, 4, 8 and 16 accepted in full and one of 24 capped by
# max_new. That is 9 passes a call, and 63 decode tokens fed, as before.
PASSES = 36
TOKENS_FED = 1888
DRAFT_PASSES = [2, 3, 5, 9, 17, 25]
MULTI_TOKEN_PASSES = [1012, *DRAFT_PASSES] + [208, *DRAFT_PASSES] * 3
CALLS, CALLS_WITHOUT_A_PASS = 16, 12
# Prefix assemblies: every round of a task retrieves the same logs in the
# same order, so each of the 4 tasks assembles its prefix once
ASSEMBLIES = 4
# Embedder calls: the ingest embeds each seen task's 6 passages and its
# 4 round queries, and 1 retrieval key (4 x 11); the run embeds each unseen
# task's 6 passages once and one query per round (4 x 6 + 16)
INGEST_EMBEDS, RUN_EMBEDS = 44, 40
# Rotations per forward pass: one of the q and k heads together per layer
# (rotating q and k apart made it two per layer)
ROTATIONS_PER_LAYER = 1
# Attention calls split over KV heads, with two usable CPUs: each prefill in
# every layer (1012 tokens after a 194-token prefix, 4.9M score elements, or
# 208 after 998 cached ones, 1.0M). A draft check of at most 25 tokens scores
# at most 0.13M elements, under SPLIT_WORK, and a one-token pass ~5k, so
# neither splits
SPLIT_PASSES = [1012, 208, 208, 208]


@pytest.fixture(scope="module")
def default_model():
    return build_model(ModelConfig())


def test_kv_run_keeps_the_generators_reuse(tmp_path, monkeypatch, default_model):
    seen, unseen = build_reuse_suite()
    backends = Backends(
        generator=ReferenceModelGenerator(default_model, max_new=64),
        embedder=HashedBagOfWordsEmbedder(dimension=256, seed=0),
        model=default_model,
    )
    embedded = []  # every text the embedder is asked for
    real_embed = backends.embedder.embed

    def counting_embed(text):
        embedded.append(text)
        return real_embed(text)

    monkeypatch.setattr(backends.embedder, "embed", counting_embed)
    ingest_tasks(seen, SelectionStrategy("last_round", "full_trace"), backends,
                 tmp_path / "s", max_steps=4, k_docs=2)
    assert len(embedded) == INGEST_EMBEDS
    embedded.clear()

    fed = []  # tokens of every forward pass
    real_forward = lag.model.forward_with_prefix

    def counting_forward(model, prefix, tokens, start_position):
        fed.append(len(tokens))
        return real_forward(model, prefix, tokens, start_position)

    rotations = []  # every rotate_pairs call of a forward pass
    real_rotate = lag.model.rotate_pairs

    def counting_rotate(*args, **kwargs):
        rotations.append(1)
        return real_rotate(*args, **kwargs)

    assemblies = []
    real_assemble = lag.orchestrator.assemble_kv_prefix

    def counting_assemble(entries):
        assemblies.append(len(entries))
        return real_assemble(entries)

    splits = []  # one per attention call that hands groups to the workers
    real_workers = lag._kernels._workers

    def counting_workers():
        splits.append(1)
        return real_workers()

    attention = []  # (new tokens, whether it split) of every attention call
    real_attention = lag.model.causal_attention

    def counting_attention(q, k, v, n_prefix):
        before = len(splits)
        out = real_attention(q, k, v, n_prefix)
        attention.append((q.shape[1], len(splits) > before))
        return out

    passes_per_call = []
    real_generate = backends.generator.generate

    def counting_generate(*args, **kwargs):
        before = len(fed)
        try:
            return real_generate(*args, **kwargs)
        finally:
            passes_per_call.append(len(fed) - before)

    # greedy_decode looks forward_with_prefix up as a module global
    monkeypatch.setattr(lag.model, "forward_with_prefix", counting_forward)
    monkeypatch.setattr(lag.model, "rotate_pairs", counting_rotate)
    monkeypatch.setattr(lag.model, "causal_attention", counting_attention)
    monkeypatch.setattr(lag._kernels, "_workers", counting_workers)
    # two usable CPUs, whatever the host has, so the split count is fixed
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(backends.generator, "generate", counting_generate)
    monkeypatch.setattr(lag.orchestrator, "assemble_kv_prefix", counting_assemble)
    store = LogStore(tmp_path / "s", mode="r")
    try:
        cfg = RunConfig(max_steps=4, k_logs=3, k_docs=2)
        assert run_tasks(unseen, cfg, backends, store).mode == LAG_KV
    finally:
        store.close()

    assert len(embedded) == RUN_EMBEDS
    assert len(fed) == PASSES
    assert len(rotations) == PASSES * ROTATIONS_PER_LAYER * default_model.config.num_layers
    assert sum(fed) == TOKENS_FED
    assert [n for n in fed if n > 1] == MULTI_TOKEN_PASSES
    assert len(passes_per_call) == CALLS
    assert passes_per_call.count(0) == CALLS_WITHOUT_A_PASS
    assert len(assemblies) == ASSEMBLIES
    layers = default_model.config.num_layers
    assert len(attention) == PASSES * layers
    assert [t for t, split in attention if split] == [t for t in SPLIT_PASSES for _ in range(layers)]


def test_a_decode_whose_drafts_fail_feeds_at_most_twice_the_tokens(
    monkeypatch, default_model
):
    # random prompts give outputs that repeat little, so many drafts fail;
    # the draft limit falls back to what was accepted, so the decode passes
    # feed at most twice the tokens of one token per pass (1.48 times here)
    fed = []
    real_forward = lag.model.forward_with_prefix

    def counting_forward(model, prefix, tokens, start_position):
        fed.append(len(tokens))
        return real_forward(model, prefix, tokens, start_position)

    monkeypatch.setattr(lag.model, "forward_with_prefix", counting_forward)
    rng = np.random.default_rng(0)
    rejected = 0
    for _ in range(8):
        prompt = rng.integers(0, 256, 16).tolist()
        fed.clear()
        want = stepwise_greedy_decode(
            default_model, default_model.prefix_cache(None), prompt, 64)
        oracle = sum(fed[1:])
        fed.clear()
        got = greedy_decode(default_model, default_model.prefix_cache(None), prompt, 64)
        drafted = sum(fed[1:])
        assert got == want
        assert drafted <= 2 * oracle
        rejected += drafted - oracle
    assert rejected > 0  # some drafts did fail
