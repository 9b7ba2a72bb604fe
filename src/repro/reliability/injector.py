"""Fault injection into a running training job (paper 9.3, Figure 18).

The injector replays a :class:`FaultEvent` script against a
:class:`~repro.training.job.TrainingJob` and produces the throughput
timeline the paper plots:

* **dual-ToR** -- a failed access leg halves that NIC's bandwidth; the
  job re-establishes connections on the surviving plane after the BGP
  convergence window and keeps training a few percent slower;
* **single-ToR** -- the host disappears; synchronous training halts
  immediately, survives short outages via NCCL reconnect (with a
  multi-second stall), and crashes outright when the outage exceeds the
  communicator timeout (rollback to checkpoint required).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.errors import ReproError, RoutingError
from ..obs import resolve as _obs_resolve
from ..training.job import TrainingJob
from .failures import FaultEvent, FaultKind

#: NCCL-style communicator timeout: outages longer than this crash the job
DEFAULT_CRASH_TIMEOUT_S = 120.0
#: stall after a surviving single-ToR link returns (reconnect storm)
DEFAULT_RECONNECT_STALL = 9.0
#: BGP /32 withdrawal + propagation window (dual-ToR failover)
DEFAULT_CONVERGENCE = 0.55


@dataclass
class TimelinePoint:
    time: float
    samples_per_sec: float
    note: str = ""


@dataclass
class InjectionResult:
    timeline: List[TimelinePoint]
    crashed: bool
    crash_time: Optional[float] = None

    def throughput_at(self, t: float) -> float:
        """Piecewise-constant lookup."""
        best = 0.0
        for point in self.timeline:
            if point.time <= t:
                best = point.samples_per_sec
            else:
                break
        return best

    def min_throughput(self, after: float = 0.0) -> float:
        vals = [p.samples_per_sec for p in self.timeline if p.time >= after]
        return min(vals) if vals else 0.0


@dataclass
class FaultInjector:
    """Replays fault events against one training job."""

    job: TrainingJob
    crash_timeout_s: float = DEFAULT_CRASH_TIMEOUT_S
    reconnect_stall: float = DEFAULT_RECONNECT_STALL
    convergence: float = DEFAULT_CONVERGENCE
    #: injectable recorder; None defers to the process-wide one
    recorder: Optional[object] = None

    def run(self, events: Sequence[FaultEvent], duration: float) -> InjectionResult:
        topo = self.job.topo
        rec = _obs_resolve(self.recorder)
        timeline: List[TimelinePoint] = []
        crashed = False
        crash_time: Optional[float] = None
        outage_since: Optional[float] = None
        #: a scheduled "recovered" point that later events may supersede
        pending_recovery_index: Optional[int] = None

        def throughput(note: str, t: float) -> None:
            # nothing is refreshed by hand: every injected fault
            # bumps Topology.state_epoch, and the Communicator drops its
            # connection sets on the epoch move -- the cached router
            # then re-walks only the routes the fault dirtied
            try:
                rate = self.job.samples_per_sec()
            except (RoutingError, ReproError):
                rate = 0.0
            timeline.append(TimelinePoint(t, rate, note))

        throughput("baseline", 0.0)
        for event in sorted(events, key=lambda e: e.time):
            if event.time > duration or crashed:
                break
            if event.kind is FaultKind.LINK_DOWN:
                link = event.resolve_link(topo)
                topo.set_link_state(link, up=False)
                if self._job_halted():
                    # a flap during an unfinished reconnect stall extends
                    # the halt: drop the superseded recovery point
                    if (
                        pending_recovery_index is not None
                        and timeline[pending_recovery_index].time > event.time
                    ):
                        del timeline[pending_recovery_index]
                        pending_recovery_index = None
                    if outage_since is None:
                        outage_since = event.time
                    timeline.append(TimelinePoint(event.time, 0.0, "halted"))
                else:
                    # blackhole window before BGP converges
                    if rec is not None:
                        rec.metrics.counter("inject.faults",
                                            kind="link_down").inc()
                        rec.events.span(
                            "failover.convergence", event.time,
                            event.time + self.convergence,
                            track="failover", link=str(link),
                        )
                    timeline.append(
                        TimelinePoint(event.time, 0.0, "convergence window")
                    )
                    throughput("degraded", event.time + self.convergence)
            elif event.kind is FaultKind.LINK_UP:
                link = event.resolve_link(topo)
                topo.set_link_state(link, up=True)
                if outage_since is not None:
                    outage = event.time - outage_since
                    if outage > self.crash_timeout_s:
                        crashed = True
                        crash_time = outage_since + self.crash_timeout_s
                        timeline.append(
                            TimelinePoint(crash_time, 0.0, "crashed (timeout)")
                        )
                        break
                    outage_since = None
                    if rec is not None:
                        rec.events.span(
                            "failover.reconnect", event.time,
                            event.time + self.reconnect_stall,
                            track="failover", link=str(link),
                        )
                    throughput(
                        "recovered after reconnect",
                        event.time + self.reconnect_stall,
                    )
                    pending_recovery_index = len(timeline) - 1
                else:
                    if rec is not None:
                        rec.events.span(
                            "failover.repair", event.time,
                            event.time + self.convergence,
                            track="failover", link=str(link),
                        )
                    throughput("repaired", event.time + self.convergence)
            elif event.kind is FaultKind.TOR_DOWN:
                topo.fail_node(event.switch)
                if self._job_halted():
                    outage_since = event.time
                    timeline.append(TimelinePoint(event.time, 0.0, "halted"))
                else:
                    throughput("tor lost", event.time + self.convergence)
            elif event.kind is FaultKind.TOR_UP:
                topo.recover_node(event.switch)
                throughput("tor restored", event.time + self.convergence)

        if not crashed and outage_since is not None:
            if duration - outage_since > self.crash_timeout_s:
                crashed = True
                crash_time = outage_since + self.crash_timeout_s
                timeline.append(TimelinePoint(crash_time, 0.0, "crashed (timeout)"))
        return InjectionResult(timeline, crashed, crash_time)

    # ------------------------------------------------------------------
    def _job_halted(self) -> bool:
        """Whether some job host lost all backend connectivity."""
        router = self.job.router
        topo = self.job.topo
        for host in self.job.placement.hosts:
            for nic in topo.hosts[host].backend_nics():
                alive = any(leg.usable for leg in router.access_legs(nic))
                if not alive:
                    return True
        return False
