"""Online query serving: micro-batched socket service over any index.

The serving layer turns the repository's batch engine into a live
service: an asyncio socket server (:mod:`repro.serve.server`) coalesces
concurrent clients' requests into batching windows
(:mod:`repro.serve.batcher`) so the batch kernels' throughput applies
to online traffic, a binary length-prefixed protocol ships results as
raw ``NeighborArrays`` columns (:mod:`repro.serve.protocol`), and
async and sync clients multiplex requests (:mod:`repro.serve.client`).
"""

from repro.serve.batcher import BatchConfig, MicroBatcher, RejectedError
from repro.serve.client import (
    AsyncClient,
    Pong,
    ServeResult,
    ServerBusyError,
    ServerError,
    SyncClient,
)
from repro.serve.server import QueryServer, ServerHandle, serve_in_thread
from repro.serve.stats import ServerStats

__all__ = [
    "AsyncClient",
    "BatchConfig",
    "MicroBatcher",
    "Pong",
    "QueryServer",
    "RejectedError",
    "ServeResult",
    "ServerBusyError",
    "ServerError",
    "ServerHandle",
    "ServerStats",
    "SyncClient",
    "serve_in_thread",
]
