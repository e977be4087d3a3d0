"""Deterministic discrete-event runtime for overlap-aware scheduling.

The simulation layer beneath the federation stack's runtime execution
(the ``parallel`` strategy and multi-tenant execution):

* :mod:`repro.runtime.kernel` — the event-queue/virtual-clock kernel;
* :mod:`repro.runtime.channel` — per-endpoint request channels with
  configurable service concurrency and in-flight windows;
* :mod:`repro.runtime.multi` — the query scheduler, the runtime's one
  request-DAG replay: each query records a dependency DAG of priced
  requests onto its tenant during execution, then every tenant's DAG
  replays through one shared kernel and one channel per endpoint into
  a makespan (``elapsed_seconds``), the concurrency-aware counterpart
  of the network model's summed ``busy_seconds``.  A single query is
  the one-tenant case; several tenants add pluggable backlog fairness
  and admission control;
* :mod:`repro.runtime.control` — AIMD adaptive concurrency control
  tuning per-channel in-flight windows and the bound-join batch size
  from live queueing delay and service-time variance.
"""

from repro.runtime.channel import (
    Channel,
    ChannelStats,
    FifoDiscipline,
    QueueDiscipline,
    Request,
    WeightedRoundRobinDiscipline,
    make_discipline,
)
from repro.runtime.control import (
    AimdController,
    AimdSettings,
    WindowAdjustment,
)
from repro.runtime.kernel import SimKernel
from repro.runtime.multi import (
    DEFAULT_CONCURRENCY,
    QueryScheduler,
    RequestHandle,
    TenantRecorder,
)

__all__ = [
    "AimdController",
    "AimdSettings",
    "DEFAULT_CONCURRENCY",
    "Channel",
    "ChannelStats",
    "FifoDiscipline",
    "QueryScheduler",
    "QueueDiscipline",
    "Request",
    "RequestHandle",
    "SimKernel",
    "TenantRecorder",
    "WeightedRoundRobinDiscipline",
    "WindowAdjustment",
    "make_discipline",
]
