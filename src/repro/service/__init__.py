"""Long-running simulation service: async daemon, sessions, client.

The production shape of the reproduction (ROADMAP item 5): instead of one
batch process per trace, ``repro serve`` runs an :mod:`asyncio` daemon that
multiplexes many concurrent *sessions* — each an independent simulation
with its own config and architectural state — over a bounded worker pool
dispatched through the :class:`~repro.experiments.backends.Backend` seam.
Clients create a session over a small HTTP/JSON API (stdlib only), stream
trace records in (packed binary or NDJSON, decoded incrementally), poll
per-chunk prediction/counter reports out, and can suspend a session to
disk — a :class:`~repro.sampling.CheckpointStore` ``state_dict`` snapshot
— and resume it later, on the same daemon or after a restart.

Layering:

* :mod:`repro.service.protocol` — wire types: typed JSON errors, record
  encodings, session states, limits;
* :mod:`repro.service.session` — :class:`SessionManager`: lifecycle,
  bounded ingest queues, the chunk dispatcher, suspend/resume, idle
  eviction;
* :mod:`repro.service.server` — the HTTP daemon (asyncio streams, no new
  dependencies) with a Prometheus ``/metrics`` endpoint and graceful
  drain on SIGTERM;
* :mod:`repro.service.client` — the blocking client library behind the
  ``repro session`` CLI.

The parity contract: a trace streamed through the service — in any
fragmentation, with any number of suspend/resume cycles — produces
``SimCounters`` bit-identical to ``repro simulate`` on the same workload
and config.  ``tests/service`` and the CI service smoke assert it.
"""

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import ServiceError, ServiceLimits
from repro.service.server import ServiceServer
from repro.service.session import Session, SessionManager

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ServiceLimits",
    "ServiceServer",
    "ServiceUnavailable",
    "Session",
    "SessionManager",
]
