"""Incremental max-min solver: dirty-set re-solve over a persistent index.

The progressive-filling allocation decomposes over connected components
of the flow<->link incidence graph: two flows that share no link (even
transitively) cannot influence each other's fair share. The
:class:`IncrementalMaxMinSolver` exploits that -- events (flow arrival,
completion, link state change) mark flows/links *dirty*, and the next
solve partitions the dirty set into its disjoint components
(:meth:`~repro.fabric.incidence.IncidenceIndex.components`) and fills
each one separately with the kernel of :mod:`repro.fabric.kernel`,
splicing frozen rates for the untouched remainder. HPN hands the
solver many small components by design: the two tier-2 planes are
physically disjoint (§6) and rail-optimized collectives keep each
rail's traffic on its own plane. The
:class:`~repro.fabric.incidence.IncidenceIndex` persists across events,
so no solve rebuilds the incidence from scratch.

The legacy :func:`repro.fabric.simulator.max_min_rates` stays intact as
the differential-testing oracle; :class:`SolverEquivalence` drives both
through randomized topologies, flow sets, and failure scripts and
asserts the rates agree to ``1e-9``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.topology import Topology
from .flow import Flow
from .incidence import IncidenceIndex
from .kernel import build_snapshot, waterfill


@dataclass
class SolverStats:
    """Counters the solver keeps; mirrored into obs by the simulator."""

    full_solves: int = 0
    incremental_solves: int = 0
    noop_solves: int = 0
    #: flows re-solved, summed over boundaries (vs. flows active)
    resolved_flows: int = 0
    active_flow_boundaries: int = 0
    #: progressive-filling iterations, summed over component fills
    kernel_iters: int = 0

    @property
    def solves(self) -> int:
        return self.full_solves + self.incremental_solves

    @property
    def mean_dirty_frac(self) -> float:
        """Average fraction of active flows re-solved per boundary."""
        if not self.active_flow_boundaries:
            return 0.0
        return self.resolved_flows / self.active_flow_boundaries


@dataclass
class SolveOutcome:
    """What one :meth:`IncrementalMaxMinSolver.solve` call did."""

    #: "noop" (nothing dirty), "incremental", or "full" (the dirty
    #: components covered every active flow)
    mode: str
    #: flow ids whose rate may have changed this solve
    touched: FrozenSet[int]
    #: |touched| / |active| for this boundary (0.0 on noop)
    dirty_frac: float
    #: progressive-filling iterations this solve ran (all components)
    kernel_iters: int = 0


_NOOP = SolveOutcome("noop", frozenset(), 0.0)

#: end-of-fill hook: (components, dirty dense links the solve consumed)
FilledHook = Optional[
    Callable[[List[Tuple[Set[int], Set[int]]], Set[int]], None]]


class IncrementalMaxMinSolver:
    """Event-maintained max-min fairness over an incidence index.

    ``link_gbps(raw_dirlink)`` supplies capacities (0 marks a link
    down). ``on_bottleneck(raw_dirlink, share, flows_fixed)`` fires per
    progressive-filling iteration, exactly like the oracle's hook.
    ``on_filled(components, dirty_links)`` fires at the end of every
    solve that filled anything, after :attr:`rates` is updated: the
    ``(flow ids, dense links)`` pairs
    :meth:`~repro.fabric.incidence.IncidenceIndex.components` built,
    and the dirty dense links the solve consumed (vacated by finished
    flows or reported through :meth:`mark_link_dirty`). Together they
    are every link whose load may have moved; the simulator's link
    view maintains loads from them. Both are the solver's working
    sets, not copies: read them inside the hook (the dirty set is
    cleared when it returns).

    The solver never polls capacities: a link's capacity is read when
    the link is first indexed and re-read only when the link is dirty.
    A caller that changes an indexed link's capacity must report it
    with :meth:`mark_link_dirty` before the next :meth:`solve`; the
    simulator does so from the topology's link-state log.
    """

    def __init__(
        self,
        link_gbps: Callable[[int], float],
        on_bottleneck: Optional[Callable[[int, float, int], None]] = None,
    ):
        self.index = IncidenceIndex()
        self.on_bottleneck = on_bottleneck
        self.stats = SolverStats()
        #: committed rate (Gbps) per active flow id -- the splice target
        self.rates: Dict[int, float] = {}
        self._link_gbps = link_gbps
        self._dirty_flows: Set[int] = set()
        self._dirty_links: Set[int] = set()
        #: dense ids below this were indexed before the last solve
        self._solved_links = 0
        self.on_filled: FilledHook = None

    # -- event notifications -------------------------------------------
    def activate(self, flow: Flow) -> None:
        """A flow became active: index it and mark it dirty."""
        self.index.add(flow, self._link_gbps)
        self._dirty_flows.add(flow.flow_id)

    def finish(self, flow: Flow) -> None:
        """A flow completed: remove it and dirty the links it vacates."""
        dense_links = self.index.remove(flow)
        self._dirty_links.update(dense for dense, _m in dense_links)
        self.rates.pop(flow.flow_id, None)

    def mark_link_dirty(self, raw_dirlink: int) -> None:
        """Report a link whose capacity may have changed.

        The next :meth:`solve` re-reads its capacity and re-solves its
        component. This is the only way a capacity change reaches the
        solver: nothing sweeps the indexed links. A link the index has
        not seen is ignored (it is read fresh when first indexed).
        """
        dense = self.index.dense_of.get(raw_dirlink)
        if dense is not None:
            self._dirty_links.add(dense)

    # ------------------------------------------------------------------
    def solve(self) -> SolveOutcome:
        """Bring :attr:`rates` up to date; returns what was re-solved.

        Each dirty component is closed (every flow on any of its links
        is in it), so filling it alone is exact against the frozen
        rates outside it.
        """
        index = self.index
        dirty_links = self._dirty_links
        if not self._dirty_flows and not dirty_links:
            self.stats.noop_solves += 1
            return _NOOP
        # links indexed since the last solve are re-read as well: one
        # may have changed state after its first read and back again,
        # which no net link change reports (their flows are all dirty)
        index.refresh_capacities(self._link_gbps, itertools.chain(
            dirty_links, range(self._solved_links, index.num_links)))
        self._solved_links = index.num_links
        comps = index.components(self._dirty_flows, dirty_links)
        self._dirty_flows.clear()
        rates = self.rates
        touched: Set[int] = set()
        iters = 0
        for comp_flows, _comp_links in comps:
            snap = build_snapshot(index, comp_flows)
            comp_rates, comp_iters = waterfill(snap, self.on_bottleneck)
            rates.update(zip(snap.flow_ids, comp_rates))
            touched.update(comp_flows)
            iters += comp_iters
        if self.on_filled is not None:
            self.on_filled(comps, dirty_links)
        dirty_links.clear()
        n_active = len(index.flows)
        stats = self.stats
        stats.active_flow_boundaries += n_active
        stats.resolved_flows += len(touched)
        stats.kernel_iters += iters
        if touched and len(touched) == n_active:
            stats.full_solves += 1
            return SolveOutcome("full", frozenset(touched), 1.0,
                                kernel_iters=iters)
        stats.incremental_solves += 1
        frac = len(touched) / n_active if n_active else 0.0
        return SolveOutcome("incremental", frozenset(touched), frac,
                            kernel_iters=iters)


# ======================================================================
# differential-testing harness: incremental engine vs the full oracle
# ======================================================================
@dataclass
class EquivalenceReport:
    """Outcome of one randomized equivalence campaign."""

    cases: int = 0
    solves_checked: int = 0
    flows_checked: int = 0
    max_rate_err: float = 0.0
    max_finish_err: float = 0.0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "cases": self.cases,
            "solves_checked": self.solves_checked,
            "flows_checked": self.flows_checked,
            "max_rate_err": self.max_rate_err,
            "max_finish_err": self.max_finish_err,
            "failures": list(self.failures),
            "ok": self.ok,
        }


class SolverEquivalence:
    """Asserts incremental == full (oracle) to ``tol`` everywhere.

    Three checks and one campaign:

    * :meth:`check_rates` -- drive one solver through a scripted event
      sequence, comparing its spliced rates against a from-scratch
      oracle solve after every step;
    * :meth:`check_run` -- run a full :class:`FluidSimulator` twice
      over the same flow objects (reset in between), once per engine,
      and compare ``SimResult.flow_finish``;
    * :meth:`component_drift` -- compare the rates a paused
      incremental simulator has committed against an oracle solve of
      each connected component, which stays affordable at Pod scale;
    * :meth:`run_random` -- a seeded campaign of randomized topologies,
      flow sets, and failure scripts through the first two checks.
    """

    def __init__(self, tol: float = 1e-9):
        self.tol = tol

    # ------------------------------------------------------------------
    def check_rates(
        self,
        flows: Sequence[Flow],
        link_gbps: Callable[[int], float],
        script: Sequence[Tuple[str, object]] = (),
        report: Optional[EquivalenceReport] = None,
        label: str = "case",
    ) -> EquivalenceReport:
        """Differential-test the solver state machine.

        ``script`` is a sequence of ``("activate", flow)``,
        ``("finish", flow)``, and ``("cap", (dirlink, gbps))`` steps
        applied on top of activating ``flows``; after every solve the
        spliced rates are compared to the oracle on the live set. A
        ``"cap"`` step reports the link through ``mark_link_dirty``, as
        the solver's contract asks; the oracle reads every capacity
        fresh, so a change the solver fails to pick up is caught.
        """
        from .simulator import max_min_rates

        report = report if report is not None else EquivalenceReport()
        caps: Dict[int, float] = {}

        def capacity(dl: int) -> float:
            return caps.get(dl, link_gbps(dl))

        solver = IncrementalMaxMinSolver(capacity)
        for f in flows:
            solver.activate(f)

        def compare(step: str) -> None:
            solver.solve()
            live = list(solver.index.flows.values())
            oracle = max_min_rates(live, capacity)
            report.solves_checked += 1
            for f in live:
                err = abs(solver.rates[f.flow_id] - oracle[f.flow_id])
                report.flows_checked += 1
                if err > report.max_rate_err:
                    report.max_rate_err = err
                if err > self.tol:
                    report.failures.append(
                        f"{label}/{step}: flow {f.flow_id} incremental="
                        f"{solver.rates[f.flow_id]!r} oracle="
                        f"{oracle[f.flow_id]!r} (err {err:.3e})"
                    )

        compare("initial")
        for i, (op, arg) in enumerate(script):
            if op == "activate":
                solver.activate(arg)  # type: ignore[arg-type]
            elif op == "finish":
                solver.finish(arg)  # type: ignore[arg-type]
            elif op == "cap":
                dl, gbps = arg  # type: ignore[misc]
                caps[dl] = gbps
                solver.mark_link_dirty(dl)
            else:
                raise ValueError(f"unknown script op {op!r}")
            compare(f"step{i}:{op}")
        return report

    # ------------------------------------------------------------------
    def check_run(
        self,
        topo,
        flows: Sequence[Flow],
        events: Sequence[Tuple[float, int, bool]] = (),
        report: Optional[EquivalenceReport] = None,
        label: str = "case",
    ) -> EquivalenceReport:
        """End-to-end: both engines over identical flows and failures.

        ``events`` are ``(time, link_id, up)`` link-state transitions.
        Link states are restored and flows reset between (and after)
        the runs, so callers keep reusable inputs.
        """
        from .simulator import FluidSimulator

        report = report if report is not None else EquivalenceReport()
        initial_up = {lid: link.up for lid, link in topo.links.items()}

        def one_run(mode: str) -> Dict[int, float]:
            sim = FluidSimulator(topo, solver=mode)
            sim.add_flows(flows)
            for t, lid, up in events:
                sim.schedule(
                    t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u)
                )
            try:
                return sim.run().flow_finish
            finally:
                for lid, up in initial_up.items():
                    topo.set_link_state(lid, up)
                for f in flows:
                    f.reset()

        finish_full = one_run("full")
        finish_inc = one_run("incremental")
        report.cases += 1
        for f in flows:
            a = finish_full.get(f.flow_id)
            b = finish_inc.get(f.flow_id)
            report.flows_checked += 1
            if (a is None) != (b is None):
                report.failures.append(
                    f"{label}: flow {f.flow_id} finished in one engine "
                    f"only (full={a!r} incremental={b!r})"
                )
                continue
            if a is None or b is None:
                continue
            err = abs(a - b)
            if err > report.max_finish_err:
                report.max_finish_err = err
            if err > self.tol * max(1.0, abs(a)):
                report.failures.append(
                    f"{label}: flow {f.flow_id} finish full={a!r} "
                    f"incremental={b!r} (err {err:.3e})"
                )
        return report

    # ------------------------------------------------------------------
    def component_drift(
        self,
        sim,
        report: Optional[EquivalenceReport] = None,
        label: str = "case",
    ) -> EquivalenceReport:
        """Committed rates of ``sim`` vs the oracle, per component.

        ``sim`` is an incremental :class:`FluidSimulator` stopped
        mid-run (``run(until=...)``), with link states still as its
        last solve saw them. Components are closed, so the oracle's
        restricted solve is exact; one flat oracle pass over a Pod's
        15k coupled flows would cost far more. Each component counts
        as one checked solve.
        """
        from .simulator import max_min_rates

        report = report if report is not None else EquivalenceReport()
        index = sim._solver.index
        for comp_flows, _links in index.components(index.flows, ()):
            live = [index.flows[fid] for fid in sorted(comp_flows)]
            oracle = max_min_rates(live, sim.link_gbps)
            report.solves_checked += 1
            for f in live:
                err = abs(f.rate_gbps - oracle[f.flow_id])
                report.flows_checked += 1
                if err > report.max_rate_err:
                    report.max_rate_err = err
                if err > self.tol:
                    report.failures.append(
                        f"{label}: flow {f.flow_id} committed="
                        f"{f.rate_gbps!r} oracle={oracle[f.flow_id]!r} "
                        f"(err {err:.3e})"
                    )
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def random_case(
        rng: random.Random, max_flows: int = 60, tag: str = "eqv"
    ) -> Tuple[Topology, List[Flow], List[Tuple[float, int, bool]]]:
        """One randomized ``(topology, flows, link_events)`` case.

        An HPN, rail-only or single-ToR shape, a routed flow set with
        staggered starts and, in most cases with two or more flows, a
        down/up flap of a link some flow crosses. Events are
        ``(time, link_id, up)``; none are drawn for fewer than 2 flows.
        """
        from ..routing import FiveTuple, shared_router
        from ..topos import (
            HpnSpec,
            RailOnlySpec,
            SingleTorSpec,
            build_hpn,
            build_railonly,
            build_singletor,
        )

        shape = rng.random()
        if shape < 0.55:
            topo = build_hpn(HpnSpec(
                segments_per_pod=rng.choice([1, 2]),
                hosts_per_segment=rng.choice([4, 6, 8]),
                backup_hosts_per_segment=0,
                aggs_per_plane=rng.choice([2, 4]),
                agg_core_uplinks=0,
            ))
        elif shape < 0.75:
            topo = build_railonly(RailOnlySpec(
                segments_per_pod=rng.choice([1, 2]),
                hosts_per_segment=rng.choice([4, 8]),
                aggs_per_plane=rng.choice([2, 4]),
            ))
        else:
            topo = build_singletor(SingleTorSpec(
                segments=rng.choice([1, 2]),
                hosts_per_segment=rng.choice([4, 8]),
            ))
        router = shared_router(topo)
        hosts = sorted(topo.hosts)
        rails = [n.rail for n in topo.hosts[hosts[0]].backend_nics()]
        flows: List[Flow] = []
        n_flows = rng.randrange(8, max_flows)
        requests = []
        for i in range(n_flows):
            src, dst = rng.sample(hosts, 2)
            rail = rng.choice(rails) if rails else 0
            a = topo.hosts[src].nic_for_rail(rail)
            b = topo.hosts[dst].nic_for_rail(rail)
            requests.append((a, b, FiveTuple(a.ip, b.ip, 49152 + i, 4791), None))
        paths = router.route_many(requests, strict=False)
        for (a, b, ft, _plane), path in zip(requests, paths):
            if path is None:
                continue
            f = Flow(ft, rng.uniform(1e6, 5e8), path,
                     start_time=rng.choice([0.0, 0.0, rng.uniform(0, 0.01)]),
                     tag=tag)
            flows.append(f)
        events: List[Tuple[float, int, bool]] = []
        if len(flows) >= 2 and rng.random() < 0.6:
            victim = rng.choice(flows)
            lid = rng.choice(victim.path.dirlinks) // 2
            t_down = rng.uniform(0.0001, 0.005)
            events.append((t_down, lid, False))
            events.append((t_down + rng.uniform(0.001, 0.01), lid, True))
        return topo, flows, events

    def run_random(self, cases: int = 50, seed: int = 0,
                   max_flows: int = 60) -> EquivalenceReport:
        """A seeded campaign of randomized topology/flow/failure cases."""
        rng = random.Random(seed)
        report = EquivalenceReport()
        for case in range(cases):
            topo, flows, events = self.random_case(
                rng, max_flows, tag=f"eqv{case}")
            if len(flows) < 2:
                continue
            self.check_run(topo, flows, events, report=report,
                           label=f"case{case}")
            # scripted solver-state check on a subset of the same flows
            sample = rng.sample(flows, min(len(flows), 12))
            script: List[Tuple[str, object]] = []
            for f in sample[: len(sample) // 2]:
                script.append(("finish", f))
            if events:
                script.insert(
                    rng.randrange(len(script) + 1),
                    ("cap", (events[0][1] * 2, 0.0)),
                )
            self.check_rates(
                flows,
                lambda dl: topo.links[dl // 2].gbps
                if topo.links[dl // 2].up else 0.0,
                script,
                report=report,
                label=f"case{case}/rates",
            )
        return report
