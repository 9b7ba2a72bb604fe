"""Communicators: rank groups mapped onto hosts and their connections.

A :class:`Communicator` owns the set of hosts participating in a
collective, one rank per (host, GPU). It establishes and caches the
multi-connection sets (Algorithm 1) between peer NICs and turns
per-edge byte volumes into simulator :class:`~repro.fabric.flow.Flow`
objects, splitting each edge's bytes across its connections with the
configured scheduling policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import CollectiveError
from ..core.topology import Topology
from ..fabric.flow import Flow
from ..routing.cache import CachedRouter
from .lb import (
    Connection,
    LeastLoadedPolicy,
    MessageScheduler,
    SchedulingPolicy,
    establish_conns,
)
from .model import H800_BOX, GpuBoxProfile

#: RoCEv2 destination port
RDMA_DPORT = 4791

#: message granularity when splitting an edge across connections
DEFAULT_CHUNK_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class Rank:
    """One GPU's place in a communicator."""

    index: int
    host: str
    gpu: int  # rail


class Communicator:
    """A group of GPUs spanning one or more hosts."""

    def __init__(
        self,
        topo: Topology,
        router: CachedRouter,
        hosts: Sequence[str],
        gpus_per_host: Optional[int] = None,
        profile: GpuBoxProfile = H800_BOX,
        num_conns: int = 2,
        policy: Optional[SchedulingPolicy] = None,
        chunk_bytes: float = DEFAULT_CHUNK_BYTES,
        disjoint_paths: bool = True,
    ):
        if not hosts:
            raise CollectiveError("communicator needs at least one host")
        if len(set(hosts)) != len(hosts):
            raise CollectiveError("duplicate hosts in communicator")
        self.topo = topo
        self.router = router
        self.hosts = list(hosts)
        first = topo.hosts[self.hosts[0]]
        self.gpus_per_host = gpus_per_host or len(first.gpus)
        self.profile = profile
        self.num_conns = num_conns
        self.policy = policy or LeastLoadedPolicy()
        self.chunk_bytes = chunk_bytes
        #: True = HPN's optimized path selection (RePaC disjoint paths);
        #: False = blind ECMP, the traditional baseline behaviour
        self.disjoint_paths = disjoint_paths
        self.ranks: List[Rank] = [
            Rank(i * self.gpus_per_host + g, h, g)
            for i, h in enumerate(self.hosts)
            for g in range(self.gpus_per_host)
        ]
        self._conn_cache: Dict[Tuple[str, str], List[Connection]] = {}
        self._conn_epoch = (topo.state_epoch, topo.structure_epoch)

    # ------------------------------------------------------------------
    @property
    def world_size(self) -> int:
        return len(self.ranks)

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def nic(self, host: str, rail: int):
        return self.topo.hosts[host].nic_for_rail(rail)

    # ------------------------------------------------------------------
    def connections(self, src_host: str, dst_host: str, rail: int) -> List[Connection]:
        """Cached multi-connection set between two hosts' rail NICs.

        The set is dropped wholesale when the topology's epochs move (a
        link flap can shift ECMP selection of any pair); re-establishing
        is cheap when the router is a
        :class:`~repro.routing.cache.CachedRouter`, which re-routes only
        the epoch-dirtied pairs and serves the rest from its cache.
        """
        epoch = (self.topo.state_epoch, self.topo.structure_epoch)
        if epoch != self._conn_epoch:
            self._conn_cache.clear()
            self._conn_epoch = epoch
        src_nic = self.nic(src_host, rail)
        dst_nic = self.nic(dst_host, rail)
        key = (src_nic.name, dst_nic.name)
        conns = self._conn_cache.get(key)
        if conns is None:
            conns = establish_conns(
                self.router, src_nic, dst_nic,
                dport=RDMA_DPORT, num_conns=self.num_conns,
                disjoint=self.disjoint_paths,
            )
            self._conn_cache[key] = conns
        return conns

    # ------------------------------------------------------------------
    def edge_flows(
        self,
        src_host: str,
        dst_host: str,
        rail: int,
        nbytes: float,
        tag: str,
        start_time: float = 0.0,
        drain_weights: Optional[Sequence[float]] = None,
    ) -> List[Flow]:
        """Split ``nbytes`` of one logical edge into per-connection flows."""
        if nbytes <= 0:
            return []
        conns = [
            Connection(c.sport, c.path) for c in self.connections(src_host, dst_host, rail)
        ]
        scheduler = MessageScheduler(conns, self.policy)
        n_msgs = max(1, int(round(nbytes / self.chunk_bytes)))
        msg = nbytes / n_msgs
        scheduler.send_all([msg] * n_msgs, drain_weights=drain_weights)
        flows = []
        for conn in conns:
            if conn.total_bytes <= 0:
                continue
            ft_src = self.nic(src_host, rail)
            ft_dst = self.nic(dst_host, rail)
            from ..routing.hashing import FiveTuple

            ft = FiveTuple(ft_src.ip, ft_dst.ip, conn.sport, RDMA_DPORT)
            flows.append(
                Flow(
                    five_tuple=ft,
                    size_bytes=conn.total_bytes,
                    path=conn.path,
                    start_time=start_time,
                    tag=tag,
                )
            )
        return flows

    def ring_flows(
        self,
        rail: int,
        bytes_per_edge: float,
        tag: str,
        hosts: Optional[Sequence[str]] = None,
        start_time: float = 0.0,
    ) -> List[Flow]:
        """Flows of one directed ring over ``hosts`` on one rail."""
        hosts = list(hosts) if hosts is not None else self.hosts
        if len(hosts) < 2:
            return []
        flows: List[Flow] = []
        for i, src in enumerate(hosts):
            dst = hosts[(i + 1) % len(hosts)]
            flows.extend(
                self.edge_flows(
                    src, dst, rail, bytes_per_edge,
                    tag=f"{tag}/rail{rail}/edge{i}", start_time=start_time,
                )
            )
        return flows

    def all_rails_ring_flows(
        self, bytes_per_edge: float, tag: str, start_time: float = 0.0
    ) -> List[Flow]:
        """Per-rail rings across all hosts (the rail-optimized pattern)."""
        flows: List[Flow] = []
        for rail in range(self.gpus_per_host):
            flows.extend(
                self.ring_flows(rail, bytes_per_edge, tag, start_time=start_time)
            )
        return flows
