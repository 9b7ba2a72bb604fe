"""The rate oracle: slow, from-scratch references the simulator is
checked against. Production code does not call into it: ``repro.fabric``
re-exports its names, and only the simulator's opt-in drift check and
the ``solver.equivalence`` experiment import it, inside the function
that uses it.

* :func:`max_min_rates` -- progressive filling over a flow set from
  scratch, the rate reference for
  :class:`~repro.fabric.solver.IncrementalMaxMinSolver`;
* :func:`reference_finish_times` -- a standalone event loop that
  re-solves :func:`max_min_rates` at every boundary, the finish-time
  reference for :class:`~repro.fabric.simulator.FluidSimulator`. It
  keeps its own byte counts and link states, mutates no
  :class:`~repro.fabric.flow.Flow` and shares no code with the
  simulator, so a bug in the simulator's arrival batching, event
  scheduling or completion bookkeeping cannot hide in both;
* :class:`SolverEquivalence` -- the differential checks and the seeded
  randomized campaign over both, reporting an
  :class:`EquivalenceReport`.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import SimulationError
from ..core.topology import Topology
from ..core.units import gbps_to_bytes_per_sec
from .flow import Flow
from .simulator import FluidSimulator
from .solver import IncrementalMaxMinSolver

#: numerical guard for "rate is zero"
_EPS = 1e-12


def max_min_rates(
    flows: Iterable[Flow],
    link_gbps: Callable[[int], float],
) -> Dict[int, float]:
    """Max-min fair rate (Gbps) per flow id.

    ``link_gbps(dirlink)`` must return the capacity of a directed link;
    returning 0 marks the link down (its flows get rate 0).

    This is the from-scratch oracle; the simulator's incremental
    solver (:mod:`repro.fabric.solver`) must, and is tested to, agree
    with it to 1e-9.
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
        # rates-dict insertion order) never depends on set iteration
        # order
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


def reference_finish_times(
    topo: Topology,
    flows: Sequence[Flow],
    events: Sequence[Tuple[float, int, bool]] = (),
) -> Dict[int, float]:
    """Finish time per flow id, from a from-scratch solve at every
    boundary.

    ``events`` are ``(time, link_id, up)`` link-state transitions.
    Link states start as ``topo`` has them; the topology and the flows
    are only read. At every boundary every due arrival (in start
    order, ties in list order) and every due link event is applied,
    then :func:`max_min_rates` re-solves the active flows, and time
    advances to the earliest completion or event. Each active flow's
    remaining bytes drop by ``rate * dt``, and a flow with at most
    1e-9 bytes left finishes. Raises :class:`SimulationError` when the
    active flows all have rate 0 and no event is left.
    """
    gbps = {lid: link.gbps for lid, link in topo.links.items()}
    up = {lid: link.up for lid, link in topo.links.items()}

    def link_gbps(dirlink: int) -> float:
        lid = dirlink // 2
        return gbps[lid] if up[lid] else 0.0

    arrivals = sorted(flows, key=lambda f: f.start_time)
    changes = sorted(events, key=lambda e: e[0])
    inf = float("inf")
    active: Dict[int, Flow] = {}
    remaining: Dict[int, float] = {}
    finish: Dict[int, float] = {}
    now = 0.0
    a = c = 0
    while a < len(arrivals) or c < len(changes) or active:
        next_t = min(
            arrivals[a].start_time if a < len(arrivals) else inf,
            changes[c][0] if c < len(changes) else inf,
        )
        if not active:
            now = max(now, next_t)
        else:
            rates = max_min_rates(active.values(), link_gbps)
            dt = inf
            for fid in active:
                if rates[fid] > _EPS:
                    dt = min(dt, remaining[fid]
                             / gbps_to_bytes_per_sec(rates[fid]))
            dt = max(min(dt, next_t - now), 0.0)
            if dt == inf:
                raise SimulationError(
                    "deadlock: active flows all have zero rate and no "
                    "future event can change that"
                )
            now += dt
            for fid in list(active):
                remaining[fid] -= gbps_to_bytes_per_sec(rates[fid]) * dt
                if remaining[fid] <= 1e-9:
                    finish[fid] = now
                    del active[fid]
        while a < len(arrivals) and arrivals[a].start_time <= now + _EPS:
            f = arrivals[a]
            active[f.flow_id] = f
            remaining[f.flow_id] = float(f.size_bytes)
            a += 1
        while c < len(changes) and changes[c][0] <= now + _EPS:
            _t, lid, state = changes[c]
            up[lid] = state
            c += 1
    return finish


# ======================================================================
# differential-testing harness: the simulator vs the oracle
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
    """Asserts the simulator == the oracle to ``tol`` everywhere.

    Three checks and one campaign:

    * :meth:`check_rates` -- drive one solver through a scripted event
      sequence, comparing its spliced rates against a from-scratch
      oracle solve after every step;
    * :meth:`check_run` -- run a :class:`FluidSimulator` over a flow
      set and link events and compare ``SimResult.flow_finish`` with
      :func:`reference_finish_times`;
    * :meth:`component_drift` -- compare the rates a paused simulator
      has committed against an oracle solve of each connected
      component, which stays affordable at Pod scale;
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
        topo: Topology,
        flows: Sequence[Flow],
        events: Sequence[Tuple[float, int, bool]] = (),
        report: Optional[EquivalenceReport] = None,
        label: str = "case",
    ) -> EquivalenceReport:
        """End-to-end: the simulator vs :func:`reference_finish_times`
        over identical flows and failures.

        ``events`` are ``(time, link_id, up)`` link-state transitions.
        Link states are restored and flows reset after the simulator's
        run, so callers keep reusable inputs.
        """
        report = report if report is not None else EquivalenceReport()
        want = reference_finish_times(topo, flows, events)
        initial_up = {lid: link.up for lid, link in topo.links.items()}
        sim = FluidSimulator(topo)
        sim.add_flows(flows)
        for t, lid, up in events:
            sim.schedule(
                t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u)
            )
        try:
            got = sim.run().flow_finish
        finally:
            for lid, up in initial_up.items():
                topo.set_link_state(lid, up)
            for f in flows:
                f.reset()
        report.cases += 1
        for f in flows:
            a = want.get(f.flow_id)
            b = got.get(f.flow_id)
            report.flows_checked += 1
            if (a is None) != (b is None):
                report.failures.append(
                    f"{label}: flow {f.flow_id} finished on one side "
                    f"only (reference={a!r} simulator={b!r})"
                )
                continue
            if a is None or b is None:
                continue
            err = abs(a - b)
            if err > report.max_finish_err:
                report.max_finish_err = err
            if err > self.tol * max(1.0, abs(a)):
                report.failures.append(
                    f"{label}: flow {f.flow_id} finish reference={a!r} "
                    f"simulator={b!r} (err {err:.3e})"
                )
        return report

    # ------------------------------------------------------------------
    def component_drift(
        self,
        sim: FluidSimulator,
        report: Optional[EquivalenceReport] = None,
        label: str = "case",
    ) -> EquivalenceReport:
        """Committed rates of ``sim`` vs the oracle, per component.

        ``sim`` is a :class:`FluidSimulator` stopped mid-run
        (``run(until=...)``), with link states still as its last solve
        saw them. Components are closed, so the oracle's restricted
        solve is exact; one flat oracle pass over a Pod's 15k coupled
        flows would cost far more. Each component counts as one
        checked solve.
        """
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
