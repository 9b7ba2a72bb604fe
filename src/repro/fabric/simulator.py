"""Fluid flow-level network simulator.

Rates are allocated by **progressive filling** (max-min fairness): all
flows grow together until some link saturates; flows through that link
are frozen at the fair share, the link's capacity is removed, and the
process repeats. This is the standard fluid abstraction for congestion-
controlled traffic and reproduces precisely the effect the paper
measures: when ECMP lands k elephant flows on one 400G link, each gets
400/k Gbps while other links idle.

The event loop advances simulation time between *flow completions* and
externally scheduled events (failure injection, new flow batches),
re-solving rates at each boundary. Two solver engines are available:

* ``solver="incremental"`` (default) -- the
  :class:`~repro.fabric.solver.IncrementalMaxMinSolver`: a persistent
  flow<->link incidence index, dirty-set re-solve of only the
  connected components an event touched (each filled on its own by
  :func:`~repro.fabric.kernel.waterfill`), a completion-time heap with
  lazy invalidation, and lazy per-flow progress accounting. Per
  boundary this costs O(dirty component), not O(active flows).
* ``solver="full"`` -- the original from-scratch
  :func:`max_min_rates` at every boundary. Kept as the
  differential-testing oracle (see
  :class:`~repro.fabric.solver.SolverEquivalence`) and as the perf
  baseline the ``bench.simcore`` suite gates against.

See ``docs/simulator.md`` for the architecture and complexity table.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..core.errors import SimulationError
from ..core.topology import Topology
from ..core.units import gbps_to_bytes_per_sec
from ..obs import FRACTION_BUCKETS as _FRACTION_BUCKETS
from ..obs import resolve as _obs_resolve
from .flow import Flow
from .solver import IncrementalMaxMinSolver, SolveOutcome

#: numerical guard for "rate is zero"
_EPS = 1e-12


def max_min_rates(
    flows: Iterable[Flow],
    link_gbps: Callable[[int], float],
    on_bottleneck: Optional[Callable[[int, float, int], None]] = None,
) -> Dict[int, float]:
    """Max-min fair rate (Gbps) per flow id.

    ``link_gbps(dirlink)`` must return the capacity of a directed link;
    returning 0 marks the link down (its flows get rate 0).
    ``on_bottleneck(dirlink, fair_share_gbps, flows_fixed)`` fires once
    per progressive-filling iteration, when that iteration's bottleneck
    link saturates -- the hook the simulator's observability rides.

    This is the from-scratch oracle; the event-driven simulator
    defaults to the incremental engine in :mod:`repro.fabric.solver`,
    which must (and is tested to) agree with this to 1e-9.
    """
    flows = list(flows)
    link_flows: Dict[int, List[Flow]] = defaultdict(list)
    for f in flows:
        for dl in f.path.dirlinks:
            link_flows[dl].append(f)

    remaining_cap: Dict[int, float] = {}
    unfixed_count: Dict[int, int] = {}
    for dl, fl in link_flows.items():
        remaining_cap[dl] = link_gbps(dl)
        unfixed_count[dl] = len(fl)

    rates: Dict[int, float] = {}
    # flows through a dead link are immediately fixed at zero --
    # per-flow-first-fix: each such flow is zeroed once and debited
    # along its *own* path occurrences, so a flow crossing two dead
    # links is not decremented twice on shared live links
    dead_links = {dl for dl, cap in remaining_cap.items() if cap <= _EPS}
    if dead_links:
        for f in flows:
            if f.flow_id in rates:
                continue
            if any(dl in dead_links for dl in f.path.dirlinks):
                rates[f.flow_id] = 0.0
                for dl in f.path.dirlinks:
                    unfixed_count[dl] -= 1

    active_links = {
        dl for dl, n in unfixed_count.items() if n > 0 and remaining_cap[dl] > _EPS
    }
    while active_links:
        # bottleneck: the link offering the smallest fair share; ties
        # break on the smallest dirlink id so fixing order (and with it
        # rates-dict insertion order and on_bottleneck callbacks) never
        # depends on set iteration order
        share, bottleneck = min(
            ((remaining_cap[dl] / unfixed_count[dl], dl)
             for dl in sorted(active_links)),
            key=lambda t: t[0],
        )
        # link_flows lists a flow once per occurrence; fix it once
        newly_fixed = list({
            f.flow_id: f for f in link_flows[bottleneck]
            if f.flow_id not in rates
        }.values())
        if on_bottleneck is not None:
            on_bottleneck(bottleneck, share, len(newly_fixed))
        for f in newly_fixed:
            rates[f.flow_id] = share
            for dl in f.path.dirlinks:
                remaining_cap[dl] -= share
                unfixed_count[dl] -= 1
        drop = [
            dl
            for dl in sorted(active_links)
            if unfixed_count[dl] <= 0 or remaining_cap[dl] <= _EPS
        ]
        for dl in drop:
            if unfixed_count[dl] > 0:
                # capacity exhausted with flows still unfixed: fix at ~0
                for f in link_flows[dl]:
                    rates.setdefault(f.flow_id, 0.0)
            active_links.discard(dl)
        # remove links whose flows were all fixed elsewhere
        active_links = {
            dl
            for dl in sorted(active_links)
            if unfixed_count[dl] > 0 and remaining_cap[dl] > _EPS
        }
    for f in flows:
        rates.setdefault(f.flow_id, 0.0)
    return rates


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    action: Callable[["FluidSimulator"], None] = field(compare=False)


@dataclass
class SimResult:
    """Outcome of one simulator run."""

    finish_time: float
    flow_finish: Dict[int, float]
    #: (time, dirlink -> Gbps) samples collected at rate-change boundaries
    samples: List[Tuple[float, Dict[int, float]]] = field(default_factory=list)

    def completion_time(self) -> float:
        return self.finish_time


class FluidSimulator:
    """Event-driven fluid simulator over one topology.

    ``solver`` selects the rate engine: ``"incremental"`` (default,
    dirty-set re-solve over a persistent incidence index, one fill per
    dirty connected component) or ``"full"`` (the original
    per-boundary from-scratch :func:`max_min_rates`, kept as the test
    oracle and perf baseline). See docs/simulator.md, "Solver engines".
    """

    def __init__(self, topo: Topology, sample_links: bool = False,
                 recorder=None, solver: str = "incremental"):
        if solver not in ("incremental", "full"):
            raise ValueError(f"unknown solver engine {solver!r}")
        self.topo = topo
        self.sample_links = sample_links
        self.solver_mode = solver
        self.now = 0.0
        self._active: Dict[int, Flow] = {}
        self._events: List[_Event] = []
        self._seq = itertools.count()
        self._flow_finish: Dict[int, float] = {}
        self._samples: List[Tuple[float, Dict[int, float]]] = []
        #: hook invoked after each rate solve: f(sim, rates)
        self.on_solve: Optional[Callable[["FluidSimulator", Dict[int, float]], None]] = None
        # observability: explicit recorder wins over the process-wide
        # one; disabled resolves to None so the hot loop pays one check
        self._rec = _obs_resolve(recorder)
        #: last committed solve's dirty fraction (health-hub sampled)
        self.last_dirty_frac: Optional[float] = None
        # health sampler hub, when a HealthEngine is attached to the
        # recorder; read once here, same discipline as _rec itself
        self._hub = self._rec.health if self._rec is not None else None
        if self._rec is not None:
            m = self._rec.metrics
            self._m_solves = m.counter("sim.solves")
            self._m_full_solves = m.counter("sim.full_solves")
            self._m_incremental_solves = m.counter("sim.incremental_solves")
            self._m_noop_solves = m.counter("sim.noop_solves")
            self._m_dirty_frac = m.histogram(
                "sim.dirty_frac", buckets=_FRACTION_BUCKETS)
            self._m_iterations = m.counter("sim.solver_iterations")
            self._m_started = m.counter("sim.flows_started")
            self._m_finished = m.counter("sim.flows_finished")
            self._m_rate_changes = m.counter("sim.rate_changes")
            self._m_kernel_iters = m.counter("sim.kernel_iters")
            self._tier_label: Dict[int, str] = {}
        self._solver: Optional[IncrementalMaxMinSolver] = None
        if solver == "incremental":
            self._solver = IncrementalMaxMinSolver(
                self.link_gbps,
                on_bottleneck=(
                    self._record_bottleneck if self._rec is not None else None
                ),
            )
        #: (predicted finish time, flow heap epoch, flow id) entries;
        #: stale entries (epoch mismatch / flow gone) are discarded
        #: lazily on peek -- no O(active) completion scans
        self._completion_heap: List[Tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    def link_gbps(self, dirlink: int) -> float:
        link = self.topo.links[dirlink // 2]
        return link.gbps if link.up else 0.0

    def add_flow(self, flow: Flow) -> None:
        """Inject a flow at ``flow.start_time`` (>= current time)."""
        if flow.start_time < self.now - _EPS:
            raise SimulationError(
                f"flow {flow.flow_id} starts in the past ({flow.start_time} < {self.now})"
            )
        self.schedule(flow.start_time, lambda sim, f=flow: sim._activate(f))

    def add_flows(self, flows: Iterable[Flow]) -> None:
        """Inject many flows, batching same-instant arrivals.

        Collective step boundaries emit hundreds of flows with one
        start time; scheduling one event per *batch* (instead of one
        per flow) keeps event-heap traffic O(distinct start times) and
        guarantees a single rate solve per arrival burst.
        """
        groups: Dict[float, List[Flow]] = {}
        for f in flows:
            if f.start_time < self.now - _EPS:
                raise SimulationError(
                    f"flow {f.flow_id} starts in the past "
                    f"({f.start_time} < {self.now})"
                )
            groups.setdefault(f.start_time, []).append(f)
        for t, batch in groups.items():
            self.schedule(t, lambda sim, b=batch: sim._activate_batch(b))

    def schedule(self, time: float, action: Callable[["FluidSimulator"], None]) -> None:
        heapq.heappush(self._events, _Event(time, next(self._seq), action))

    def _activate(self, flow: Flow) -> None:
        self._active[flow.flow_id] = flow
        flow._progress_t = self.now
        if self._solver is not None:
            self._solver.activate(flow)
        if self._rec is not None and not flow._start_emitted:
            flow._start_emitted = True
            self._m_started.inc()
            self._rec.events.instant(
                "flow.start", self.now, track="flows",
                flow_id=flow.flow_id, size_bytes=flow.size_bytes,
                tag=flow.tag,
            )

    def _activate_batch(self, flows: List[Flow]) -> None:
        for f in flows:
            self._activate(f)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> SimResult:
        """Run until all flows complete (and events drain) or ``until``."""
        if self.solver_mode == "full":
            return self._run_full(until)
        return self._run_incremental(until)

    # -- incremental engine --------------------------------------------
    def _run_incremental(self, until: Optional[float]) -> SimResult:
        run_start_s = self.now
        solver = self._solver
        assert solver is not None
        try:
            while self._events or self._active:
                # release all events at the current frontier
                next_event_time = self._events[0].time if self._events else None
                if not self._active:
                    if next_event_time is None:
                        break
                    if until is not None and next_event_time > until:
                        self.now = until
                        break
                    self.now = max(self.now, next_event_time)
                    self._pop_due_events()
                    continue

                outcome = solver.solve()
                self._commit(outcome)
                if self._rec is not None:
                    self._record_link_util()
                if self.on_solve is not None:
                    self.on_solve(self, solver.rates)
                if self.sample_links:
                    self._samples.append((self.now, self._link_loads()))

                dt = self._next_completion_dt()
                if next_event_time is not None:
                    dt = min(dt, next_event_time - self.now)
                if until is not None:
                    dt = min(dt, until - self.now)
                if dt < 0:
                    dt = 0.0
                if dt == float("inf"):
                    raise SimulationError(
                        "deadlock: active flows all have zero rate and no "
                        "future event can change that"
                    )
                self._advance_incremental(dt)
                if until is not None and self.now >= until - _EPS:
                    break
                self._pop_due_events()
        finally:
            self._materialize_active()

        if self._rec is not None:
            self._rec.events.span(
                "sim.run", run_start_s, self.now, track="sim",
                flows_finished=len(self._flow_finish),
            )
        return SimResult(
            finish_time=self.now,
            flow_finish=dict(self._flow_finish),
            samples=self._samples,
        )

    def _commit(self, outcome: SolveOutcome) -> None:
        """Apply a solve: update touched flows' rates and heap entries.

        Only flows the solver re-solved can have changed rate, so the
        commit is O(dirty component), not O(active).
        """
        rec = self._rec
        if rec is not None:
            self._m_solves.inc()
            if outcome.kernel_iters:
                self._m_kernel_iters.inc(outcome.kernel_iters)
            if outcome.mode == "full":
                self._m_full_solves.inc()
                self._m_dirty_frac.observe(1.0)
                self.last_dirty_frac = 1.0
            elif outcome.mode == "incremental":
                self._m_incremental_solves.inc()
                self._m_dirty_frac.observe(outcome.dirty_frac)
                self.last_dirty_frac = outcome.dirty_frac
            else:
                self._m_noop_solves.inc()
                self.last_dirty_frac = 0.0
        if not outcome.touched:
            return
        solver = self._solver
        assert solver is not None
        rates = solver.rates
        active = self._active
        heap = self._completion_heap
        now = self.now
        for fid in outcome.touched:
            flow = active.get(fid)
            if flow is None:
                continue
            new_rate = rates[fid]
            old_rate = flow.rate_gbps
            if new_rate == old_rate:
                continue
            # materialize progress at the old rate before switching
            if old_rate > _EPS and now > flow._progress_t:
                flow.remaining_bytes -= (
                    gbps_to_bytes_per_sec(old_rate) * (now - flow._progress_t)
                )
                if flow.remaining_bytes < 0.0:
                    flow.remaining_bytes = 0.0
            flow._progress_t = now
            flow.rate_gbps = new_rate
            flow._heap_epoch += 1
            if new_rate > _EPS:
                finish = now + flow.remaining_bytes / gbps_to_bytes_per_sec(
                    new_rate
                )
                heapq.heappush(heap, (finish, flow._heap_epoch, fid))
            if rec is not None and abs(new_rate - old_rate) > _EPS:
                self._m_rate_changes.inc()
                rec.events.instant(
                    "flow.rate", now, track="flows",
                    flow_id=fid, rate_gbps=new_rate,
                )

    def _next_completion_dt(self) -> float:
        """Time to the earliest completion, via the lazy heap."""
        heap = self._completion_heap
        active = self._active
        while heap:
            finish, epoch, fid = heap[0]
            flow = active.get(fid)
            if flow is None or flow._heap_epoch != epoch:
                heapq.heappop(heap)  # stale: finished or re-rated
                continue
            return finish - self.now
        return float("inf")

    def _advance_incremental(self, dt: float) -> None:
        """Advance time; complete exactly the flows the heap says."""
        self.now += dt
        now = self.now
        heap = self._completion_heap
        active = self._active
        solver = self._solver
        rec = self._rec
        while heap:
            finish, epoch, fid = heap[0]
            flow = active.get(fid)
            if flow is None or flow._heap_epoch != epoch:
                heapq.heappop(heap)
                continue
            if finish > now + _EPS:
                break
            heapq.heappop(heap)
            flow.remaining_bytes = 0.0
            flow._progress_t = now
            flow.finish_time = now
            self._flow_finish[fid] = now
            del active[fid]
            if solver is not None:
                solver.finish(flow)
            if rec is not None:
                self._m_finished.inc()
                rec.events.span(
                    "flow", flow.start_time, now, track="flows",
                    flow_id=fid, size_bytes=flow.size_bytes,
                    tag=flow.tag,
                )

    def _materialize_active(self) -> None:
        """Sync surviving flows' ``remaining_bytes`` to ``self.now``.

        The incremental engine accounts progress lazily (a flow's
        bytes are only materialized when its rate changes); callers
        that inspect flows after/between runs get exact state.
        """
        now = self.now
        for flow in self._active.values():
            rate = flow.rate_gbps
            if rate > _EPS and now > flow._progress_t:
                flow.remaining_bytes -= (
                    gbps_to_bytes_per_sec(rate) * (now - flow._progress_t)
                )
                if flow.remaining_bytes < 0.0:
                    flow.remaining_bytes = 0.0
            flow._progress_t = now

    # -- full (oracle) engine ------------------------------------------
    def _run_full(self, until: Optional[float]) -> SimResult:
        run_start_s = self.now
        while self._events or self._active:
            # release all events at the current frontier
            next_event_time = self._events[0].time if self._events else None
            if not self._active:
                if next_event_time is None:
                    break
                if until is not None and next_event_time > until:
                    self.now = until
                    break
                self.now = max(self.now, next_event_time)
                self._pop_due_events()
                continue

            rates = max_min_rates(
                self._active.values(), self.link_gbps,
                on_bottleneck=(
                    self._record_bottleneck if self._rec is not None else None
                ),
            )
            if self._rec is not None:
                self._m_solves.inc()
                self._m_full_solves.inc()
                self.last_dirty_frac = 1.0
                for fid, flow in self._active.items():
                    if abs(rates[fid] - flow.rate_gbps) > _EPS:
                        self._m_rate_changes.inc()
                        self._rec.events.instant(
                            "flow.rate", self.now, track="flows",
                            flow_id=fid, rate_gbps=rates[fid],
                        )
            for fid, flow in self._active.items():
                flow.rate_gbps = rates[fid]
            if self._rec is not None:
                self._record_link_util()
            if self.on_solve is not None:
                self.on_solve(self, rates)
            if self.sample_links:
                self._samples.append((self.now, self._link_loads()))

            dt_complete = self._min_completion_dt()
            candidates = [dt_complete]
            if next_event_time is not None:
                candidates.append(next_event_time - self.now)
            if until is not None:
                candidates.append(until - self.now)
            dt = min(c for c in candidates if c is not None)
            if dt < 0:
                dt = 0.0
            if dt == float("inf"):
                raise SimulationError(
                    "deadlock: active flows all have zero rate and no "
                    "future event can change that"
                )
            self._advance(dt)
            if until is not None and self.now >= until - _EPS:
                break
            self._pop_due_events()

        if self._rec is not None:
            self._rec.events.span(
                "sim.run", run_start_s, self.now, track="sim",
                flows_finished=len(self._flow_finish),
            )
        return SimResult(
            finish_time=self.now,
            flow_finish=dict(self._flow_finish),
            samples=self._samples,
        )

    # ------------------------------------------------------------------
    def _record_bottleneck(self, dirlink: int, share_gbps: float,
                           flows_fixed: int) -> None:
        """Solver hook: one progressive-filling iteration saturated."""
        self._m_iterations.inc()
        self._rec.events.instant(
            "link.saturated", self.now, track="links",
            dirlink=dirlink, fair_share_gbps=share_gbps,
            flows=flows_fixed,
        )

    def _dirlink_tier(self, dirlink: int) -> str:
        """Tier label of a directed link: access / agg / core / tierN."""
        label = self._tier_label.get(dirlink)
        if label is None:
            link = self.topo.links[dirlink // 2]
            sa = self.topo.switches.get(link.a.node)
            sb = self.topo.switches.get(link.b.node)
            if sa is None or sb is None:
                label = "access"
            else:
                top = max(sa.tier, sb.tier)
                label = {2: "agg", 3: "core"}.get(top, f"tier{top}")
            self._tier_label[dirlink] = label
        return label

    def _record_link_util(self) -> None:
        """Sample per-tier peak link utilization after a rate solve.

        When a health hub is attached the same pass also counts flows
        per directed link and hands both maps to the hub's samplers
        (decimated by ``hub.wants_sample()``), so health monitoring
        adds no extra traversal of the active set.
        """
        hub = self._hub
        counts: Optional[Dict[int, int]] = (
            {} if hub is not None and hub.wants_sample() else None
        )
        loads: Dict[int, float] = {}
        if counts is None:
            for flow in self._active.values():
                for dl in dict.fromkeys(flow.path.dirlinks):
                    loads[dl] = loads.get(dl, 0.0) + flow.rate_gbps
        else:
            for flow in self._active.values():
                for dl in dict.fromkeys(flow.path.dirlinks):
                    loads[dl] = loads.get(dl, 0.0) + flow.rate_gbps
                    counts[dl] = counts.get(dl, 0) + 1
        per_tier: Dict[str, float] = {}
        for dl, load in loads.items():
            cap = self.link_gbps(dl)
            if cap <= _EPS:
                continue
            tier = self._dirlink_tier(dl)
            util = load / cap
            if util > per_tier.get(tier, 0.0):
                per_tier[tier] = util
        for tier, util in per_tier.items():
            self._rec.metrics.gauge("link_util", tier=tier).set(
                util, ts_s=self.now
            )
        if counts is not None:
            hub.sample_fluid(self, loads, counts)

    def oracle_drift(self) -> float:
        """Max |committed - oracle| rate (Gbps) over active flows.

        One from-scratch :func:`max_min_rates` solve compared against
        the rates the running engine last committed -- the health
        engine's solver-drift spot check. Costs a full solve, so
        callers decide how often (``HealthConfig.drift_check_every``).
        """
        if not self._active:
            return 0.0
        rates = max_min_rates(self._active.values(), self.link_gbps)
        worst = 0.0
        for fid in sorted(self._active):
            worst = max(worst, abs(self._active[fid].rate_gbps - rates[fid]))
        return worst

    # ------------------------------------------------------------------
    def _min_completion_dt(self) -> float:
        """O(active) completion scan -- the full engine's original path
        (the incremental engine uses :meth:`_next_completion_dt`)."""
        best = float("inf")
        for flow in self._active.values():
            if flow.rate_gbps > _EPS:
                dt = flow.remaining_bytes / gbps_to_bytes_per_sec(flow.rate_gbps)
                best = min(best, dt)
        return best

    def _advance(self, dt: float) -> None:
        self.now += dt
        finished = []
        for fid, flow in self._active.items():
            flow.remaining_bytes -= gbps_to_bytes_per_sec(flow.rate_gbps) * dt
            if flow.done:
                flow.finish_time = self.now
                self._flow_finish[fid] = self.now
                finished.append(fid)
                if self._rec is not None:
                    self._m_finished.inc()
                    self._rec.events.span(
                        "flow", flow.start_time, self.now, track="flows",
                        flow_id=fid, size_bytes=flow.size_bytes,
                        tag=flow.tag,
                    )
        for fid in finished:
            del self._active[fid]

    def _pop_due_events(self) -> None:
        while self._events and self._events[0].time <= self.now + _EPS:
            event = heapq.heappop(self._events)
            event.action(self)

    def _link_loads(self) -> Dict[int, float]:
        loads: Dict[int, float] = defaultdict(float)
        for flow in self._active.values():
            for dl in flow.path.dirlinks:
                loads[dl] += flow.rate_gbps
        return dict(loads)

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> List[Flow]:
        if self.solver_mode == "incremental":
            self._materialize_active()
        return list(self._active.values())


def run_flows(topo: Topology, flows: Iterable[Flow], **kwargs) -> SimResult:
    """One-shot convenience: simulate a flow set to completion."""
    sim = FluidSimulator(topo, **kwargs)
    sim.add_flows(flows)
    return sim.run()
