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

The from-scratch :func:`repro.fabric.oracle.max_min_rates` is the
differential-testing oracle; :class:`~repro.fabric.oracle.SolverEquivalence`
drives this solver and the simulator through randomized topologies,
flow sets, and failure scripts and asserts they agree with it to
``1e-9``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Set,
    Tuple,
)

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
    progressive-filling iteration.
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
