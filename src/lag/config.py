"""Model hyperparameters and the fingerprint that gates KV compatibility."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import ConfigurationError

# fixed parts of the model that its fingerprint hashes: the byte vocabulary
# (256 bytes and end-of-text) and the RoPE base (RoFormer, Su et al., 2021)
VOCAB_SIZE = 257
ROPE_BASE = 10000.0


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the reference decoder; (config, weight_seed) fully
    determines the weights, so the fingerprint doubles as a KV-cache
    compatibility key."""

    num_layers: int = 4
    num_heads: int = 4
    num_kv_heads: int = 2
    head_dim: int = 16
    max_positions: int = 4096
    weight_seed: int = 0

    @property
    def hidden_dim(self) -> int:
        return self.num_heads * self.head_dim

    def validate(self) -> None:
        if self.num_layers <= 0:
            raise ConfigurationError("num_layers must be positive")
        if self.num_heads <= 0 or self.num_kv_heads <= 0:
            raise ConfigurationError("head counts must be positive")
        if self.head_dim <= 0 or self.head_dim % 2 != 0:
            raise ConfigurationError(
                f"head_dim must be a positive even number, got {self.head_dim}"
            )
        if self.num_heads % self.num_kv_heads != 0:
            raise ConfigurationError(
                f"num_heads ({self.num_heads}) must be a multiple of "
                f"num_kv_heads ({self.num_kv_heads})"
            )
        if self.max_positions <= 0:
            raise ConfigurationError("max_positions must be positive")

    def fingerprint(self) -> str:
        """Hex sha256 over every field, including the weight seed, and the
        fixed ``VOCAB_SIZE`` and ``ROPE_BASE`` the model computes with."""
        text = "|".join(
            str(v)
            for v in (
                "lag-model-v1",
                self.num_layers,
                self.num_heads,
                self.num_kv_heads,
                self.head_dim,
                VOCAB_SIZE,
                ROPE_BASE,
                self.max_positions,
                self.weight_seed,
            )
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Fingerprint used by entries that carry no KV payload (text logs).
TEXT_FINGERPRINT = "0" * 64
