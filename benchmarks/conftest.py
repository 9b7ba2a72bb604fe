"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one table or figure of the paper and
prints the rows/series it reports (run with ``-s`` to see them inline;
they are also summarized in EXPERIMENTS.md). Shape assertions encode
the paper's qualitative claims so regressions fail loudly.
"""

from __future__ import annotations

import json
import os
import time
import uuid

import pytest

from repro import Cluster, DcnPlusSpec, HpnSpec, SingleTorSpec, __version__
from repro.engine.manifest import ExperimentRecord, RunManifest
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


# ----------------------------------------------------------------------
# engine manifests + perf trajectory
#
# Each benchmark session emits one engine run manifest (one record per
# benchmark, wall time + outcome) and appends a row to
# BENCH_trajectory.json, the cross-run perf history. Opt out with
# REPRO_BENCH_MANIFEST=0; redirect with REPRO_BENCH_DIR.
# ----------------------------------------------------------------------
_BENCH_CALLS = []
_SESSION_T0 = [0.0]


def _bench_dir() -> str:
    default = os.path.join(os.path.dirname(__file__), ".artifacts")
    return os.environ.get("REPRO_BENCH_DIR", default)


def _manifests_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_MANIFEST", "1") != "0"


def pytest_sessionstart(session):
    _SESSION_T0[0] = time.time()


def pytest_runtest_logreport(report):
    if report.when == "call":
        _BENCH_CALLS.append(
            (report.nodeid, report.outcome, report.duration)
        )


def pytest_sessionfinish(session, exitstatus):
    if not _manifests_enabled() or not _BENCH_CALLS:
        return
    manifest = RunManifest(
        run_id=f"{time.strftime('%Y%m%dT%H%M%S')}-{uuid.uuid4().hex[:8]}",
        backend="pytest",
        workers=1,
        code_versions={"repro": __version__},
        started_at_s=_SESSION_T0[0],
        finished_at_s=time.time(),
        records=[
            ExperimentRecord(
                kind=f"benchmark:{nodeid}",
                params={},
                seed=0,
                cache_key="",
                cache_hit=False,
                wall_time_s=duration,
                worker="pytest",
                payload={"outcome": outcome},
            )
            for nodeid, outcome, duration in _BENCH_CALLS
        ],
    )
    out_dir = _bench_dir()
    try:
        path = manifest.save(out_dir)
    except OSError:
        return  # read-only checkout: manifests are best-effort
    trajectory_path = os.path.join(out_dir, "BENCH_trajectory.json")
    try:
        with open(trajectory_path) as fh:
            trajectory = json.load(fh)
        if not isinstance(trajectory, list):
            trajectory = []
    except (OSError, json.JSONDecodeError):
        trajectory = []
    trajectory.append(
        {
            "run_id": manifest.run_id,
            "repro_version": __version__,
            "finished_at_s": manifest.finished_at_s,
            "total_wall_s": sum(d for _, _, d in _BENCH_CALLS),
            "benchmarks": {
                nodeid: {"outcome": outcome, "wall_time_s": duration}
                for nodeid, outcome, duration in _BENCH_CALLS
            },
        }
    )
    with open(trajectory_path, "w") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
    _BENCH_CALLS.clear()
    print(f"\nengine manifest: {path}")
    print(f"perf trajectory: {trajectory_path}")


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
