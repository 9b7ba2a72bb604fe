"""repro.serve: persistent what-if routing/telemetry service.

The daemon (``repro serve``) keeps a topology, its compiled FIBs, and
the warm :func:`~repro.routing.shared_router` resident and answers
batched what-if queries over a small HTTP API (see
``docs/serving.md``):

* ``path`` -- which path does this 5-tuple take (``path_for``);
* ``planes`` -- usable planes between two NICs;
* ``repac`` -- RePaC disjoint-path set for a connection request;
* ``residual`` -- residual bandwidth after a hypothetical failure,
  evaluated under ``Topology.transient_state()`` fork-and-probe
  against a dedicated probe router so the live caches stay warm.

The performance core is :class:`~repro.serve.batching.MicroBatcher`:
concurrent requests, each submitted whole with one future, accumulate
into size/deadline-bounded micro-batches that
:meth:`~repro.serve.state.ServeState.execute_batch` dedupes once and
evaluates, with results byte-identical to serial one-at-a-time
evaluation. Each answer is cached in one place: the live router's
route cache (live path, planes) or the result memo (live RePaC and
residual, every what-if).
"""

from .batching import BatchStats, MicroBatcher
from .client import ServeClient
from .query import KINDS, Query, QueryError
from .server import ServeDaemon
from .state import ServeState

__all__ = [
    "BatchStats",
    "KINDS",
    "MicroBatcher",
    "Query",
    "QueryError",
    "ServeClient",
    "ServeDaemon",
    "ServeState",
]
