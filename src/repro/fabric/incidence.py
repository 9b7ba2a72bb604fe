"""Persistent flow<->dirlink incidence for the incremental solver.

The legacy solver (:func:`repro.fabric.simulator.max_min_rates`)
rebuilds a ``dirlink -> [flows]`` dict from scratch at every solve
boundary -- O(flows x path length) of allocation and hashing even when
a single flow finished. The :class:`IncidenceIndex` keeps that mapping
*alive across events*: flows are spliced in on activation and out on
completion, directed links get contiguous dense integer ids, and the
per-link state the solver consumes (capacity, total incident flow
weight) lives in flat ``array`` vectors keyed by dense id instead of
per-solve dicts.

Dense ids also make the dirty-set machinery cheap: connected-component
walks and capacity-refresh sweeps touch plain list/array slots, not
hash tables keyed by sparse dirlink ids.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterable, List, Set, Tuple

from .flow import Flow

#: numerical guard shared with the solver ("capacity is zero")
_EPS = 1e-12


class IncidenceIndex:
    """Mutable flow<->dirlink incidence with dense link ids.

    * ``dense_of[raw_dirlink] -> dense id`` (grow-only);
    * ``dirlinks[dense] -> raw dirlink`` (the inverse);
    * ``cap[dense]`` -- last-seen capacity in Gbps (``array('d')``);
    * ``weight[dense]`` -- total occurrence count of incident active
      flows (``array('q')``; a flow crossing a link twice counts 2);
    * ``link_flows[dense] -> {flow_id: occurrences}``;
    * ``flow_links[flow_id] -> ((dense, occurrences), ...)``.

    The index never forgets a link (dense ids stay valid for the life
    of the simulator); links whose flows all finished simply carry
    weight 0.
    """

    __slots__ = ("dense_of", "dirlinks", "cap", "weight", "link_flows",
                 "flow_links", "flows")

    def __init__(self) -> None:
        self.dense_of: Dict[int, int] = {}
        self.dirlinks: List[int] = []
        self.cap = array("d")
        self.weight = array("q")
        self.link_flows: List[Dict[int, int]] = []
        self.flow_links: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self.flows: Dict[int, Flow] = {}

    def __len__(self) -> int:
        return len(self.flows)

    @property
    def num_links(self) -> int:
        return len(self.dirlinks)

    # ------------------------------------------------------------------
    def dense(self, dirlink: int, link_gbps: Callable[[int], float]) -> int:
        """Dense id of a raw dirlink, registering it on first sight."""
        dense = self.dense_of.get(dirlink)
        if dense is None:
            dense = len(self.dirlinks)
            self.dense_of[dirlink] = dense
            self.dirlinks.append(dirlink)
            self.cap.append(link_gbps(dirlink))
            self.weight.append(0)
            self.link_flows.append({})
        return dense

    def add(self, flow: Flow, link_gbps: Callable[[int], float]) -> None:
        """Splice an activated flow into the index."""
        fid = flow.flow_id
        if fid in self.flows:
            raise ValueError(f"flow {fid} already indexed")
        dense_links = tuple(
            (self.dense(dl, link_gbps), mult)
            for dl, mult in flow.path.dirlink_multiplicity()
        )
        self.flows[fid] = flow
        self.flow_links[fid] = dense_links
        weight = self.weight
        link_flows = self.link_flows
        for dense, mult in dense_links:
            weight[dense] += mult
            link_flows[dense][fid] = mult

    def remove(self, flow: Flow) -> Tuple[Tuple[int, int], ...]:
        """Splice a finished flow out; returns its dense links."""
        fid = flow.flow_id
        dense_links = self.flow_links.pop(fid)
        del self.flows[fid]
        weight = self.weight
        link_flows = self.link_flows
        for dense, mult in dense_links:
            weight[dense] -= mult
            del link_flows[dense][fid]
        return dense_links

    # ------------------------------------------------------------------
    def refresh_capacities(
        self, link_gbps: Callable[[int], float]
    ) -> List[int]:
        """Re-read every indexed link's capacity; return changed ids.

        This is the sweep that picks up out-of-band topology mutation
        (failure injection toggling ``link.up``, capacity edits) --
        O(distinct links), which is far below O(flows) on every
        workload the benchmarks run.
        """
        changed: List[int] = []
        cap = self.cap
        for dense, raw in enumerate(self.dirlinks):
            now_gbps = link_gbps(raw)
            # exact compare on purpose: any observable change (incl.
            # down -> 0.0) must dirty the link; tolerance would let
            # sub-eps capacity edits leak stale rates
            if now_gbps != cap[dense]:  # repro: noqa[LINT001]
                cap[dense] = now_gbps
                changed.append(dense)
        return changed

    # ------------------------------------------------------------------
    def component(
        self,
        seed_flows: Iterable[int],
        seed_links: Iterable[int],
    ) -> Tuple[Set[int], Set[int]]:
        """Connected component of the incidence graph from the seeds.

        Walks flow->links->flows alternately until closed. Returns
        ``(flow_ids, dense_links)``; seed flows no longer indexed are
        ignored.
        """
        flows = self.flows
        flow_links = self.flow_links
        link_flows = self.link_flows
        comp_flows: Set[int] = set()
        comp_links: Set[int] = set()
        todo_flows: List[int] = []
        todo_links: List[int] = []
        for fid in seed_flows:
            if fid in flows and fid not in comp_flows:
                comp_flows.add(fid)
                todo_flows.append(fid)
        for dense in seed_links:
            if dense not in comp_links:
                comp_links.add(dense)
                todo_links.append(dense)
        while todo_flows or todo_links:
            while todo_flows:
                fid = todo_flows.pop()
                for dense, _mult in flow_links[fid]:
                    if dense not in comp_links:
                        comp_links.add(dense)
                        todo_links.append(dense)
            while todo_links:
                dense = todo_links.pop()
                for fid in link_flows[dense]:
                    if fid not in comp_flows:
                        comp_flows.add(fid)
                        todo_flows.append(fid)
        return comp_flows, comp_links

    # ------------------------------------------------------------------
    def components(
        self,
        seed_flows: Iterable[int],
        seed_links: Iterable[int],
    ) -> List[Tuple[Set[int], Set[int]]]:
        """Partition the seeds into *disjoint* connected components.

        Unlike :meth:`component` (one merged walk from all seeds), the
        result keeps independent components separate -- the unit the
        solver fills. Components are ordered by their smallest flow
        id, deterministically; seed links whose flows all finished
        (weight 0) yield no component.
        """
        flows = self.flows
        link_flows = self.link_flows
        seeds: List[int] = sorted(
            fid for fid in seed_flows if fid in flows
        )
        for dense in sorted(set(seed_links)):
            seeds.extend(sorted(link_flows[dense]))
        visited: Set[int] = set()
        out: List[Tuple[Set[int], Set[int]]] = []
        for fid in seeds:
            if fid not in visited:
                comp = self.component((fid,), ())
                visited.update(comp[0])
                out.append(comp)
        out.sort(key=lambda c: min(c[0]))
        return out
