"""Flows: the unit of traffic in the fluid simulator.

A flow is one RDMA connection's worth of data moving along a fixed
:class:`~repro.routing.path.FlowPath`. The simulator assigns it a rate
(max-min fair share) that changes whenever the set of active flows or
the link state changes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..routing.hashing import FiveTuple
from ..routing.path import FlowPath

_flow_ids = itertools.count()


@dataclass
class Flow:
    """One unidirectional transfer."""

    five_tuple: FiveTuple
    size_bytes: float
    path: FlowPath
    #: simulation time the flow becomes active
    start_time: float = 0.0
    #: free-form label ("dp-allreduce/ring3/…") for telemetry grouping
    tag: str = ""
    flow_id: int = field(default_factory=lambda: next(_flow_ids))

    # -- simulator state -------------------------------------------------
    remaining_bytes: float = field(init=False)
    rate_gbps: float = field(init=False, default=0.0)
    finish_time: Optional[float] = field(init=False, default=None)
    #: obs emit-once guard: the ``flow.start`` instant fires at most
    #: once per (reset-delimited) lifetime, even if the same object is
    #: re-activated across runs (replay reuses flow objects)
    _start_emitted: bool = field(init=False, default=False, repr=False,
                                 compare=False)
    #: sim time ``remaining_bytes`` was last materialized at -- the
    #: simulator accounts progress lazily between rate changes
    _progress_t: float = field(init=False, default=0.0, repr=False,
                               compare=False)
    #: completion-heap epoch: bumped on every rate change so stale heap
    #: entries are recognized and discarded (lazy invalidation)
    _heap_epoch: int = field(init=False, default=0, repr=False,
                             compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("flow size must be positive")
        self.remaining_bytes = float(self.size_bytes)

    @property
    def done(self) -> bool:
        return self.remaining_bytes <= 1e-9

    def reset(self) -> None:
        """Rewind the flow for reuse across simulation runs."""
        self.remaining_bytes = float(self.size_bytes)
        self.rate_gbps = 0.0
        self.finish_time = None
        self._start_emitted = False
        self._progress_t = 0.0
        self._heap_epoch += 1
