"""Online node-inference serving layer (docs/serving.md).

Turns :func:`repro.minidgl.train.infer_minibatch` into a product surface:
an async request queue with per-request deadlines, dynamic micro-batching
(one sampled block per batch), admission control, graceful drain,
and a pinned-budget LRU feature-row cache -- all riding the two-level
kernel cache so steady-state serving performs zero recompiles.
"""

from repro.serve.cache import FeatureCache
from repro.serve.service import (
    DEFAULT_BATCH_WINDOW_MS,
    DeadlineExceeded,
    InferenceService,
    Overloaded,
    ServeFuture,
    ServeStats,
    ServiceClosed,
)

__all__ = [
    "DEFAULT_BATCH_WINDOW_MS",
    "DeadlineExceeded",
    "FeatureCache",
    "InferenceService",
    "Overloaded",
    "ServeFuture",
    "ServeStats",
    "ServiceClosed",
]
