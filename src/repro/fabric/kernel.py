"""Max-min waterfill kernel over a flat snapshot of one flow component.

The solver (:class:`~repro.fabric.solver.IncrementalMaxMinSolver`)
fills every dirty connected component of the flow<->link incidence
graph on its own. :func:`build_snapshot` copies one component out of
the persistent :class:`~repro.fabric.incidence.IncidenceIndex` into
flat lists over *local* link ids (the rank of each dense id), and
:func:`waterfill` runs progressive filling over them -- bottleneck
argmin, bulk rate assignment, frozen flags -- until every flow is
fixed.

The fill follows one **canonical order**: flows enumerate ascending by
flow id, links ascending by dense id, bottleneck ties break to the
smallest dense id, and newly fixed flows debit flow-major in
ascending-id order with each flow's links in path order. Components
share no link, so filling them one at a time runs, inside each
component, exactly the IEEE-double operations one merged fill would:
the committed rates are byte-identical however a solve's dirty set
splits into components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: numerical guard for "rate/capacity is zero", as in the oracle
_EPS = 1e-12

#: per-iteration bottleneck hook: (raw_dirlink, fair_share_gbps, fixed)
BottleneckHook = Optional[Callable[[int, float, int], None]]


@dataclass
class ComponentSnapshot:
    """Flat view of one closed flow component.

    ``flow_ids`` ascend and a flow's *rank* is its position there;
    local link ids are the rank of the dense id among the component's
    links (ascending). ``caps``/``weights`` are copied from the index
    at build time, so the kernel never reads the live index.
    """

    flow_ids: List[int]
    raw_dirlinks: List[int]
    caps: List[float]
    weights: List[int]
    #: per flow rank: ``((local link, occurrences), ...)`` in path order
    flow_links: List[Tuple[Tuple[int, int], ...]]
    #: per local link: the ranks of its flows, ascending
    link_flows: List[List[int]]

    @property
    def num_flows(self) -> int:
        return len(self.flow_ids)

    @property
    def num_links(self) -> int:
        return len(self.raw_dirlinks)


def build_snapshot(index, flow_ids: Iterable[int]) -> ComponentSnapshot:
    """Snapshot a *closed* flow set (every flow on a touched link).

    Closure is the caller's contract (a connected component); it is
    what lets ``weights`` come straight from the index's global
    per-link totals.
    """
    fids = sorted(flow_ids)
    index_links = [index.flow_links[fid] for fid in fids]
    dense_ids = sorted({dense for links in index_links
                        for dense, _mult in links})
    local_of: Dict[int, int] = {
        dense: local for local, dense in enumerate(dense_ids)
    }
    flow_links: List[Tuple[Tuple[int, int], ...]] = []
    link_flows: List[List[int]] = [[] for _ in dense_ids]
    for rank, links in enumerate(index_links):
        local_links = tuple((local_of[dense], mult) for dense, mult in links)
        flow_links.append(local_links)
        for local, _mult in local_links:
            link_flows[local].append(rank)
    return ComponentSnapshot(
        flow_ids=fids,
        raw_dirlinks=[index.dirlinks[dense] for dense in dense_ids],
        caps=[index.cap[dense] for dense in dense_ids],
        weights=[index.weight[dense] for dense in dense_ids],
        flow_links=flow_links,
        link_flows=link_flows,
    )


def waterfill(
    snap: ComponentSnapshot, on_bottleneck: BottleneckHook = None
) -> Tuple[List[float], int]:
    """Progressive filling; returns (rates aligned to flow_ids, iterations).

    Mirrors the oracle :func:`repro.fabric.oracle.max_min_rates`
    step for step: flows crossing a dead link get 0, each iteration
    fixes the unfixed flows of the link offering the smallest fair
    share, and a link whose capacity runs out with flows still unfixed
    zeroes them without further debits.
    """
    residual = list(snap.caps)
    unfixed = list(snap.weights)
    flow_links = snap.flow_links
    link_flows = snap.link_flows
    rates = [0.0] * snap.num_flows
    fixed = [False] * snap.num_flows
    raw = snap.raw_dirlinks

    # dead-link pass, per-flow-first-fix: each flow crossing any dead
    # link is zeroed once and debited along its own links by its own
    # occurrence counts (never once per dead link crossed)
    for rank, links in enumerate(flow_links):
        if any(residual[local] <= _EPS for local, _mult in links):
            fixed[rank] = True
            for local, mult in links:
                unfixed[local] -= mult

    active = [
        local for local in range(snap.num_links)
        if unfixed[local] > 0 and residual[local] > _EPS
    ]
    iterations = 0
    while active:
        # bottleneck: the smallest fair share, ties to the smallest id
        share, bottleneck = min(
            (residual[local] / unfixed[local], local) for local in active
        )
        newly = [rank for rank in link_flows[bottleneck] if not fixed[rank]]
        iterations += 1
        if on_bottleneck is not None:
            on_bottleneck(raw[bottleneck], share, len(newly))
        if not newly:
            # only drained-to-zero flows remain on this link: it can
            # make no further progress -- retire it (liveness guard)
            active.remove(bottleneck)
            continue
        for rank in newly:
            rates[rank] = share
            fixed[rank] = True
            for local, mult in flow_links[rank]:
                residual[local] -= share * mult
                unfixed[local] -= mult
        still: List[int] = []
        for local in active:
            if unfixed[local] <= 0:
                continue
            if residual[local] > _EPS:
                still.append(local)
                continue
            # capacity exhausted with flows still unfixed: they get 0
            # (mirrors the oracle: no further debits)
            for rank in link_flows[local]:
                fixed[rank] = True
        active = still
    return rates, iterations
