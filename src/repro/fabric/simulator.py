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
re-solving rates at each boundary with the
:class:`~repro.fabric.solver.IncrementalMaxMinSolver`: a persistent
flow<->link incidence index, dirty-set re-solve of only the connected
components an event touched (each filled on its own by
:func:`~repro.fabric.kernel.waterfill`), a completion-time heap with
lazy invalidation, and lazy per-flow progress accounting. Link failures
reach it from the topology's link-state log, and with a recorder
attached the per-link loads are maintained from the same dirty set. Per
boundary this costs O(dirty component), not O(active flows).

The from-scratch oracle it is checked against lives in
:mod:`repro.fabric.oracle`. See ``docs/simulator.md`` for the
architecture and complexity table.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..core.errors import SimulationError
from ..core.topology import Topology
from ..core.units import gbps_to_bytes_per_sec
from ..obs import FRACTION_BUCKETS as _FRACTION_BUCKETS
from ..obs import resolve as _obs_resolve
from .flow import Flow
from .solver import IncrementalMaxMinSolver, SolveOutcome

#: numerical guard for "rate is zero"
_EPS = 1e-12


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


class _LinkView:
    """:meth:`FluidSimulator.link_view`, maintained: per-dirlink load
    and flow count, and per-tier peak utilization, kept current from
    each solve's dirty links.

    The simulator keeps one when a recorder is attached.
    Arrays are indexed by the solver's dense link ids. A link's load is
    a left fold from 0.0 over its flows' committed rates in
    ``IncidenceIndex.link_flows`` order (activation order), one term
    per flow however often its path visits the link: the additions,
    in order, of the from-scratch walk, so every value is
    bit-identical to it. A link counts as *live* while it carries a
    flow and has capacity; only live links have a utilization above 0.
    """

    __slots__ = ("_topo", "_index", "_rates", "load", "_tier",
                 "_tier_links", "peak", "_argmax", "live_util",
                 "live_count")

    def __init__(self, topo: Topology, solver: IncrementalMaxMinSolver):
        self._topo = topo
        self._index = solver.index
        self._rates = solver.rates
        self.load = array("d")
        self._tier: List[str] = []
        #: tier -> its indexed raw dirlinks
        self._tier_links: Dict[str, List[int]] = {}
        #: tier -> peak utilization, and the raw dirlink holding it
        self.peak: Dict[str, float] = {}
        self._argmax: Dict[str, int] = {}
        #: raw dirlink -> utilization / flow count, live links only
        self.live_util: Dict[int, float] = {}
        self.live_count: Dict[int, int] = {}

    def update(self, components: List[Tuple[Set[int], Set[int]]],
               dirty_links: Set[int]) -> None:
        """The solver's ``on_filled`` hook: recompute exactly the links
        a solve may have moved, every link of a filled component plus
        the dirty links left without flows. Other links' flows, rates
        and capacities are unchanged.
        """
        index = self._index
        link_flows = index.link_flows
        rates = self._rates
        for raw in index.dirlinks[len(self.load):]:
            tier = self._topo.link_tier(raw // 2)
            self.load.append(0.0)
            self._tier.append(tier)
            self._tier_links.setdefault(tier, []).append(raw)
            if tier not in self.peak:
                self.peak[tier] = 0.0
                self._argmax[tier] = raw
        vacated = [dense for dense in dirty_links if not link_flows[dense]]
        cap = index.cap
        dirlinks = index.dirlinks
        load = self.load
        tier_of = self._tier
        peak = self.peak
        argmax = self._argmax
        live_util = self.live_util
        live_count = self.live_count
        stale: Set[str] = set()
        # the values do not depend on the visiting order; only which of
        # several equal-peak links holds the argmax does
        groups = itertools.chain(
            (links for _flows, links in components), (vacated,))
        for links in groups:
            for dense in links:
                flows = link_flows[dense]
                total = 0.0
                for fid in flows:
                    total += rates[fid]
                load[dense] = total
                gbps = cap[dense]
                raw = dirlinks[dense]
                if flows and gbps > _EPS:
                    u = total / gbps
                    live_util[raw] = u
                    live_count[raw] = len(flows)
                else:
                    u = 0.0
                    live_util.pop(raw, None)
                    live_count.pop(raw, None)
                tier = tier_of[dense]
                if u >= peak[tier]:
                    peak[tier] = u
                    argmax[tier] = raw
                elif argmax[tier] == raw:
                    stale.add(tier)
        # the argmax fell (or lost its flows, or went down): rescan
        for tier in sorted(stale):
            best = max(self._tier_links[tier],
                       key=lambda raw: live_util.get(raw, 0.0))
            peak[tier] = live_util.get(best, 0.0)
            argmax[tier] = best


class FluidSimulator:
    """Event-driven fluid simulator over one topology: dirty-set
    re-solve over a persistent incidence index, one fill per dirty
    connected component. See docs/simulator.md.
    """

    def __init__(self, topo: Topology, recorder=None):
        self.topo = topo
        self.now = 0.0
        self._active: Dict[int, Flow] = {}
        self._events: List[_Event] = []
        self._seq = itertools.count()
        self._flow_finish: Dict[int, float] = {}
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
            self._g_link_util: Dict[str, Any] = {}
        self._solver = IncrementalMaxMinSolver(
            self.link_gbps,
            on_bottleneck=(
                self._record_bottleneck if self._rec is not None else None
            ),
        )
        #: link-state log cursor: transitions before it have been
        #: reported to the solver (links indexed later read fresh)
        self._state_cursor = topo.state_epoch
        self._view: Optional[_LinkView] = None
        if self._rec is not None:
            self._view = _LinkView(topo, self._solver)
            self._solver.on_filled = self._view.update
        #: (predicted finish time, flow heap epoch, flow id) entries;
        #: stale entries (epoch mismatch / flow gone) are discarded
        #: lazily on peek -- no O(active) completion scans
        self._completion_heap: List[Tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    def link_gbps(self, dirlink: int) -> float:
        link = self.topo.links[dirlink // 2]
        return link.gbps if link.up else 0.0

    def add_flows(self, flows: Iterable[Flow]) -> None:
        """Inject flows at their ``start_time`` (>= current time),
        batching same-instant arrivals.

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
        """Run until all flows complete (and events drain) or ``until``.

        An attached health hub writes its pending hot-link samples as
        the run returns, so the recording is complete between runs.
        """
        run_start_s = self.now
        solver = self._solver
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

                self._report_link_changes()
                outcome = solver.solve()
                self._commit(outcome)
                if self._view is not None:
                    self._publish_link_util(self._view)
                if self.on_solve is not None:
                    self.on_solve(self, solver.rates)

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
                self._advance(dt)
                if until is not None and self.now >= until - _EPS:
                    break
                self._pop_due_events()
        finally:
            self._materialize_active()
            if self._hub is not None:
                self._hub.flush_runs()

        if self._rec is not None:
            self._rec.events.span(
                "sim.run", run_start_s, self.now, track="sim",
                flows_finished=len(self._flow_finish),
            )
        return SimResult(
            finish_time=self.now,
            flow_finish=dict(self._flow_finish),
        )

    def _report_link_changes(self) -> None:
        """Dirty both directions of every link whose state differs
        from the cursor's epoch, then advance the cursor.

        Net changes only: a what-if failure restored before the solve
        (``Topology.transient_state``) re-solves nothing.
        """
        topo = self.topo
        if self._state_cursor == topo.state_epoch:
            return
        solver = self._solver
        for lid in topo.net_link_changes(self._state_cursor):
            solver.mark_link_dirty(2 * lid)
            solver.mark_link_dirty(2 * lid + 1)
        self._state_cursor = topo.state_epoch

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
        rates = self._solver.rates
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

    def _advance(self, dt: float) -> None:
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

        Progress is accounted lazily (a flow's bytes are only
        materialized when its rate changes); callers that inspect
        flows after/between runs get exact state.
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

    def link_view(self) -> Tuple[
            Dict[int, float], Dict[int, int], Dict[int, float],
            Dict[str, float]]:
        """The measured link load, from scratch over every active flow.

        Returns ``(loads, counts, utils, peaks)``: Gbps and flow count
        of every directed link an active flow crosses, utilization of
        the live ones among them (with capacity), and each tier's peak
        utilization, for tiers whose peak is above 0.

        This is the one definition of measured link load: a
        measurement counts a flow **once per directed link**, however
        often its path visits that link; only the solver's debit counts
        each visit. With a recorder attached the simulator maintains
        the same values in its :class:`_LinkView` (the tests compare
        the two bit for bit), and fleet snapshots read their per-tier
        peaks from this walk.
        """
        loads: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for flow in self._active.values():
            for dl in dict.fromkeys(flow.path.dirlinks):
                loads[dl] = loads.get(dl, 0.0) + flow.rate_gbps
                counts[dl] = counts.get(dl, 0) + 1
        utils: Dict[int, float] = {}
        peaks: Dict[str, float] = {}
        for dl, load in loads.items():
            cap = self.link_gbps(dl)
            if cap <= _EPS:
                continue
            util = utils[dl] = load / cap
            tier = self.topo.link_tier(dl // 2)
            if util > peaks.get(tier, 0.0):
                peaks[tier] = util
        return loads, counts, utils, peaks

    def _publish_link_util(self, view: _LinkView) -> None:
        """Record one solve's link utilization from the maintained view.

        Sets ``link_util{tier}`` for every tier whose peak is above 0
        and, on an acted health sample (``hub.wants_sample()``), hands
        the live links' utilization and flow counts to the hub.
        """
        now = self.now
        gauges = self._g_link_util
        peaks = view.peak
        for tier in sorted(peaks):
            util = peaks[tier]
            if util > 0.0:
                gauge = gauges.get(tier)
                if gauge is None:
                    gauge = gauges[tier] = self._rec.metrics.gauge(
                        "link_util", tier=tier)
                gauge.set(util, ts_s=now)
        hub = self._hub
        if hub is not None and hub.wants_sample():
            hub.sample_fluid(self, view.live_util, view.live_count)

    def oracle_drift(self) -> float:
        """Max |committed - oracle| rate (Gbps) over active flows.

        One from-scratch :func:`~repro.fabric.oracle.max_min_rates`
        solve compared against the rates the simulator last committed
        -- the health engine's solver-drift spot check. Costs a full
        solve, so callers decide how often
        (``HealthConfig.drift_check_every``).
        """
        if not self._active:
            return 0.0
        from .oracle import max_min_rates

        rates = max_min_rates(self._active.values(), self.link_gbps)
        worst = 0.0
        for fid in sorted(self._active):
            worst = max(worst, abs(self._active[fid].rate_gbps - rates[fid]))
        return worst

    def _pop_due_events(self) -> None:
        while self._events and self._events[0].time <= self.now + _EPS:
            event = heapq.heappop(self._events)
            event.action(self)

    # ------------------------------------------------------------------
    @property
    def active_flows(self) -> List[Flow]:
        self._materialize_active()
        return list(self._active.values())


def run_flows(topo: Topology, flows: Iterable[Flow],
              recorder=None) -> SimResult:
    """One-shot convenience: simulate a flow set to completion."""
    sim = FluidSimulator(topo, recorder=recorder)
    sim.add_flows(flows)
    return sim.run()
