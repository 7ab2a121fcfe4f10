"""Synchronous CONGEST / CONGESTED CLIQUE simulator.

The simulator executes per-node algorithms in synchronous rounds and enforces
the defining constraint of the CONGEST model: every message must fit in
O(log n) bits.  Message sizes are measured in *words* of ``ceil(log2(n+1))``
bits; a message may carry at most ``word_limit`` words (default 8) and
violations raise :class:`~repro.congest.errors.CongestionError` in strict
mode.  This makes the congestion phenomenon the paper studies *observable*:
the same algorithm that runs on ``G`` fails loudly when it naively tries to
ship 2-hop neighborhoods over single edges.

Execution engines
-----------------
Three engine configurations run the rounds (see :mod:`repro.congest.engine`):

* ``"v1"`` — the reference loop: every live node is invoked every round.
* ``"v2"`` — the activity-scheduled engine (default): only nodes with
  pending inbox traffic or an explicit self-wake
  (:meth:`~repro.congest.algorithm.NodeAlgorithm.wants_wake`) run, inbox
  buffers are reused instead of reallocated, adjacency checks and message
  metering are O(1)/cached, quiescence is detected incrementally, and
  batched outboxes (:meth:`~repro.congest.algorithm.NodeAlgorithm.broadcast`
  / :meth:`~repro.congest.algorithm.NodeAlgorithm.send_many`) are metered
  once per batch instead of once per message.
* ``"v2-dict"`` — v2 with the batch fast path disabled, kept as the
  pre-batching baseline for differential benchmarks.

Select an engine per network (``CongestNetwork(graph, engine="v1")``) or
process-wide via the ``REPRO_ENGINE`` environment variable.  All engines
are required to produce identical outputs, statistics and round events;
``tests/test_engine_parity.py`` and ``tests/test_batch_outbox.py`` enforce
this differentially, and ``benchmarks/bench_engine_scaling.py`` /
``benchmarks/bench_solver_engines.py`` measure the speedups.
"""

from repro.congest.errors import CongestionError, RoundLimitError
from repro.congest.engine import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    resolve_engine_name,
)
from repro.congest.message import payload_words, word_bits_for
from repro.congest.algorithm import NodeAlgorithm, NodeView
from repro.congest.network import (
    CongestNetwork,
    RunResult,
    RunStats,
    run_stages,
)
from repro.congest.clique import CongestedCliqueNetwork
from repro.congest.primitives import (
    BfsTreeAlgorithm,
    ConvergecastAlgorithm,
    BroadcastAlgorithm,
    build_bfs_tree,
    convergecast_tokens,
    broadcast_tokens,
)

__all__ = [
    "CongestionError",
    "RoundLimitError",
    "DEFAULT_ENGINE",
    "ENGINE_ENV_VAR",
    "resolve_engine_name",
    "payload_words",
    "word_bits_for",
    "NodeAlgorithm",
    "NodeView",
    "CongestNetwork",
    "CongestedCliqueNetwork",
    "RunResult",
    "RunStats",
    "run_stages",
    "BfsTreeAlgorithm",
    "ConvergecastAlgorithm",
    "BroadcastAlgorithm",
    "build_bfs_tree",
    "convergecast_tokens",
    "broadcast_tokens",
]
