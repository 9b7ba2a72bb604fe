"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one table or figure of the paper and
prints the rows/series it reports (run with ``-s`` to see them inline;
they are also summarized in EXPERIMENTS.md). Shape assertions encode
the paper's qualitative claims so regressions fail loudly.
"""

from __future__ import annotations

import pytest

from repro import Cluster, DcnPlusSpec, HpnSpec, SingleTorSpec
from repro.fabric.solver import IncrementalMaxMinSolver


def report(title: str, lines) -> None:
    """Print one experiment's regenerated rows."""
    print(f"\n=== {title} ===")
    for line in lines:
        print(f"  {line}")


def set_fair_rates(cluster, flows):
    """Set every flow's ``rate_gbps`` from one production-engine solve."""
    solver = IncrementalMaxMinSolver(lambda dl: cluster.topo.links[dl // 2].gbps)
    for f in flows:
        solver.activate(f)
    solver.solve()
    for f in flows:
        f.rate_gbps = solver.rates[f.flow_id]
    return flows


@pytest.fixture(scope="session")
def hpn_448():
    """HPN at the paper's 448-GPU evaluation scale: one segment."""
    return Cluster.hpn(
        HpnSpec(
            segments_per_pod=1,
            hosts_per_segment=56,
            backup_hosts_per_segment=0,
            aggs_per_plane=60,
        )
    )


@pytest.fixture(scope="session")
def dcn_448():
    """DCN+ at 448 GPUs: four production-sized segments."""
    return Cluster.dcnplus(
        DcnPlusSpec(pods=1, segments_per_pod=4, hosts_per_segment=16)
    )


@pytest.fixture(scope="session")
def hpn_256():
    """HPN for the 256-GPU reliability experiments (section 9.3)."""
    return Cluster.hpn(
        HpnSpec(
            segments_per_pod=1,
            hosts_per_segment=32,
            backup_hosts_per_segment=0,
            aggs_per_plane=8,
        )
    )


@pytest.fixture(scope="session")
def singletor_256():
    return Cluster.singletor(SingleTorSpec(segments=2, hosts_per_segment=16))


def hpn_hosts(n: int, segment: int = 0):
    return [f"pod0/seg{segment}/host{i}" for i in range(n)]


def dcn_hosts_contiguous(n: int, per_segment: int = 16):
    out = []
    seg = 0
    while len(out) < n:
        for i in range(per_segment):
            out.append(f"pod0/seg{seg}/host{i}")
            if len(out) == n:
                break
        seg += 1
    return out


def dcn_hosts_fragmented(cluster, n: int, free_per_segment: int = 14):
    """Production-style fragmented allocation (fresh scheduler each call
    so session-scoped clusters can serve many benchmarks)."""
    from repro.training import Scheduler

    return Scheduler(cluster.topo).place(n, max_hosts_per_segment=free_per_segment)
