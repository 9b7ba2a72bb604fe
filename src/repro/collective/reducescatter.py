"""ReduceScatter on the simulated fabric.

Used standalone and as the first half of ZeRO-style sharded gradient
synchronization (DeepSpeed, which the paper names as a mainstream
framework): each rank ends up owning the reduced shard of 1/n of the
buffer, moving ``(n-1)/n * S`` bytes per ring edge -- half an
AllReduce.
"""

from __future__ import annotations

from ..core.errors import CollectiveError
from ..fabric.simulator import run_flows
from .allreduce import CollectiveResult
from .comm import Communicator
from .model import ring_allgather_edge_bytes
from .tracing import record_stages


def reduce_scatter(comm: Communicator, size_bytes: float) -> CollectiveResult:
    """Simulate one ReduceScatter of a ``size_bytes`` buffer."""
    if size_bytes <= 0:
        raise CollectiveError("ReduceScatter size must be positive")
    g = comm.gpus_per_host
    h = comm.num_hosts
    profile = comm.profile

    # intra-host stage: NVLS reduces shards inside the NVSwitch
    intra = profile.intra_reduce_scatter_time(size_bytes, g)
    inter = 0.0
    if h > 1:
        shard = size_bytes / g if g else size_bytes
        per_edge = ring_allgather_edge_bytes(shard, h)  # (n-1)/n factor
        flows = comm.all_rails_ring_flows(per_edge, tag="reducescatter")
        inter = run_flows(comm.topo, flows).finish_time \
            + profile.ring_latency_seconds(h) / 2
    result = CollectiveResult(
        op="reducescatter",  # busbw: the (n-1)/n AllGather normalization
        size_bytes=size_bytes,
        world_size=comm.world_size,
        intra_seconds=intra,
        inter_seconds=inter,
    )
    record_stages(result)
    return result
