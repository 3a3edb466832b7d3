import errno
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


class FailingFile:
    """A file whose ``fails`` call ("write", "flush" or "close") fails as on
    a full disk, after ``succeeds`` such calls went through. A failing write
    first puts half its data into the file, so a writer must also undo bytes
    that reached it."""

    def __init__(self, fh, fails: str, succeeds: int = 0):
        self._fh, self._fails, self._left = fh, fails, succeeds

    def _fail(self, call: str) -> bool:
        if call != self._fails:
            return False
        self._left -= 1
        return self._left < 0

    def write(self, data):
        if self._fail("write"):
            self._fh.write(data[: len(data) // 2])
            self._fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def flush(self):
        if self._fail("flush"):
            raise OSError(errno.ENOSPC, "No space left on device")
        self._fh.flush()

    def close(self):
        self._fh.close()
        if self._fail("close"):
            raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)
