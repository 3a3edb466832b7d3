import os

import numpy as np
import pytest

import lag
from lag.backends import HashedBagOfWordsEmbedder
from lag.config import ModelConfig
from lag.model import build_model

SMALL_CONFIG = ModelConfig(
    num_layers=3,
    num_heads=4,
    num_kv_heads=2,
    head_dim=8,
    weight_seed=42,
    max_positions=2048,
)


@pytest.fixture(scope="session")
def small_model():
    return build_model(SMALL_CONFIG)


@pytest.fixture(scope="session")
def embedder():
    return HashedBagOfWordsEmbedder(dimension=64, seed=0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def child_env(**extra: str) -> dict:
    """Environment for a child interpreter that imports the same ``lag`` as
    this suite, installed or from a source tree."""
    lag_root = os.path.dirname(os.path.dirname(os.path.abspath(lag.__file__)))
    pythonpath = os.pathsep.join(p for p in (lag_root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}
