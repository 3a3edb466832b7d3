"""Work budget of the reference generator on a small kv_agent-like run.

Transcripts do not show whether the generator reused anything: a generator
with no memo writes the same ones. Forward-pass counts do, and they are
deterministic, so a lost reuse fails here instead of only in a timed run.
"""

import pytest

import lag.model
from lag.backends import Backends, HashedBagOfWordsEmbedder, ReferenceModelGenerator
from lag.codec import SelectionStrategy
from lag.config import ModelConfig
from lag.model import build_model
from lag.orchestrator import LAG_KV, RunConfig
from lag.runner import ingest_tasks, run_tasks
from lag.store import LogStore
from lag.synth import build_reuse_suite

# Recorded at commit 1cc223a. A change that moves them must say why the new
# counts are right.
PASSES = 256
TOKENS_FED = 1888
MULTI_TOKEN_PASSES = [1012, 208, 208, 208]
CALLS, CALLS_WITHOUT_A_PASS = 16, 12
# Embedder calls: the ingest embeds each seen task's 6 passages and its
# 4 round queries, and 1 retrieval key (4 x 11); the run embeds each unseen
# task's 6 passages once and one query per round (4 x 6 + 16)
INGEST_EMBEDS, RUN_EMBEDS = 44, 40
# Rotations per forward pass: one of the q and k heads together per layer
# (rotating q and k apart made it two per layer)
ROTATIONS_PER_LAYER = 1


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
    monkeypatch.setattr(backends.generator, "generate", counting_generate)
    store = LogStore(tmp_path / "s", mode="r")
    try:
        cfg = RunConfig(mode=LAG_KV, max_steps=4, k_logs=3, k_docs=2)
        run_tasks(unseen, cfg, backends, store)
    finally:
        store.close()

    assert len(embedded) == RUN_EMBEDS
    assert len(fed) == PASSES
    assert len(rotations) == PASSES * ROTATIONS_PER_LAYER * default_model.config.num_layers
    assert sum(fed) == TOKENS_FED
    assert [n for n in fed if n > 1] == MULTI_TOKEN_PASSES
    assert len(passes_per_call) == CALLS
    assert passes_per_call.count(0) == CALLS_WITHOUT_A_PASS
