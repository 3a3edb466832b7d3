"""Log-augmented generation: store KV caches of past task reasoning,
retrieve them by similarity, reposition their rotary embeddings, and inject
them into new generations."""

from .actions import Action, extract_action
from .backends import (
    Backends,
    CosineDocRetriever,
    GeneratorBackend,
    HashedBagOfWordsEmbedder,
    HttpGeneratorBackend,
    ReferenceModelGenerator,
    ScriptedGenerator,
)
from .codec import (
    AgentTranscript,
    LogEntry,
    SelectionStrategy,
    deserialize,
    encode_log,
    serialize,
)
from .config import ModelConfig
from .metrics import (
    EvalReport,
    SplitSpec,
    choice_accuracy,
    exact_match,
    f1,
    paired_ttest,
    split,
    transitions,
)
from .model import (
    ByteTokenizer,
    Model,
    build_model,
    encode,
    forward_with_prefix,
    greedy_decode,
)
from .orchestrator import RunConfig, assemble_kv_prefix, run_task
from .rope import RopeParams, reposition_segment
from .segment import KvCache, KvSegment
from .store import LogStore, RetrievalResult

__all__ = [
    "Action",
    "AgentTranscript",
    "Backends",
    "ByteTokenizer",
    "CosineDocRetriever",
    "EvalReport",
    "GeneratorBackend",
    "HashedBagOfWordsEmbedder",
    "HttpGeneratorBackend",
    "KvCache",
    "KvSegment",
    "LogEntry",
    "LogStore",
    "Model",
    "ModelConfig",
    "ReferenceModelGenerator",
    "RetrievalResult",
    "RopeParams",
    "RunConfig",
    "ScriptedGenerator",
    "SelectionStrategy",
    "SplitSpec",
    "assemble_kv_prefix",
    "build_model",
    "choice_accuracy",
    "deserialize",
    "encode",
    "encode_log",
    "exact_match",
    "extract_action",
    "f1",
    "forward_with_prefix",
    "greedy_decode",
    "paired_ttest",
    "reposition_segment",
    "run_task",
    "serialize",
    "split",
    "transitions",
]

__version__ = "0.1.0"
