"""Self-tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest hpnbench -q``
(the repository's own suite under ``tests/`` does not collect them).
Workloads run here at toy size, with outputs recorded in-test.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: module constants that shrink every workload to a second or less
TOY = {
    "FIG15_DP": 2,
    "POD_SEGMENTS": 2, "POD_HOSTS_PER_SEGMENT": 4, "POD_AGGS_PER_PLANE": 4,
    "HEALTH_SEGMENT_HOSTS": 16, "HEALTH_HOSTS": 8, "HEALTH_AGGS_PER_PLANE": 4,
    "HEALTH_STEPS": 3, "HEALTH_FAIL_S": 0.001, "HEALTH_REPAIR_S": 0.010,
    "HEALTH_PROBE_S": 0.0042,
    "SERVE_WARMUP": 2, "SERVE_TIMED": 6,
}
TOY_SOURCE = "".join(f"workloads.{k} = {v!r}\n" for k, v in TOY.items())


@pytest.fixture
def toy(monkeypatch):
    """Toy sizes, with fig15/health outputs recorded at that size."""
    for key, value in TOY.items():
        monkeypatch.setattr(workloads, key, value)
    recorded: dict = {"fig15": {}, "health": {}}
    monkeypatch.setattr(workloads, "load_expected", lambda: recorded)
    for variant in range(workloads.VARIANTS):
        recorded["fig15"][str(variant)] = (
            workloads.run_fig15(variant, {})["extra"]["outputs"])
        recorded["health"][str(variant)] = {
            "digest": workloads.run_health(variant, {})["extra"]["digest"]}
    return recorded


@pytest.mark.parametrize("name", ["fig15", "pod", "health", "serve"])
def test_every_workload_runs_at_toy_size(toy, tmp_path, name):
    phases: dict = {}
    if name == "serve":
        result = workloads.run_serve(5, phases, tmp_path, "toy")
    else:
        result = workloads.WORKLOADS[name](5, phases)
    assert result["errors"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["run_s"] > 0 and result["setup_s"] > 0
    assert set(phases) == {"setup", "run"}


def test_corrupted_expected_value_fails(toy, monkeypatch):
    variant = 5 % workloads.VARIANTS
    outputs = workloads.run_fig15(5, {})["extra"]["outputs"]
    assert not any(workloads.fig15_check(variant, outputs, toy).values())
    bad = json.loads(json.dumps(toy))
    bad["fig15"][str(variant)]["dcnplus"]["dp_seconds"] *= 1 + 1e-6
    errors = workloads.fig15_check(variant, outputs, bad)
    assert errors["dcnplus"] and not errors["hpn"]

    bad["health"][str(variant)]["digest"] = "0" * 64
    monkeypatch.setattr(workloads, "load_expected", lambda: bad)
    result = workloads.run_health(5, {})
    assert result["failed"] >= 1
    assert any("digest" in e for e in result["errors"])


def test_committed_expected_file_covers_every_variant():
    doc = json.loads(workloads.EXPECTED_PATH.read_text())
    for name in ("fig15", "health"):
        assert sorted(doc[name]) == sorted(str(v) for v in range(workloads.VARIANTS))


def test_spans_nest_and_self_times_sum_to_the_run(toy):
    t = tracer.Tracer().install()
    try:
        phases: dict = {}
        result = workloads.run_pod(3, phases)
    finally:
        t.uninstall()
    spans = t.spans
    assert spans and not t.missing
    for name, start, end, parent, _run, _info in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert min(tracer.self_times(spans)) >= -1e-9
    table = tracer.phase_table(spans, phases)
    assert sum(table["run"].values()) == pytest.approx(result["run_s"], abs=1e-9)
    assert sum(table["setup"].values()) == pytest.approx(result["setup_s"], abs=1e-9)
    trace = tracer.chrome_trace([(1, "pod", spans)], phases["setup"][0])
    from repro.obs.export import validate_chrome_trace

    assert validate_chrome_trace(trace) == []
    # wrappers are gone after uninstall
    from repro.fabric import FluidSimulator

    assert not hasattr(FluidSimulator.run, "__wrapped__")


def test_self_times_of_synthetic_spans():
    spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None], ["d", 5.0, 6.0, 0, 0, None],
             ["e", 12.0, 13.0, -1, 0, None]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]
    table = tracer.phase_table(spans, {"run": (0.0, 20.0)})
    assert table["run"]["other"] == 9.0
    assert sum(table["run"].values()) == 20.0


COUNTS_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = [{src!r}, {here!r}]
import worker, workloads
{toy}
recorded = {{"fig15": {{}}, "health": {{}}}}
workloads.load_expected = lambda: recorded
with tempfile.TemporaryDirectory() as tmp:
    m = worker.traced({name!r}, 2, Path(tmp))["trace"]["metrics"]
print(json.dumps({{k: v for k, v in m.items()
                  if not k.endswith("_s") and "_ms" not in k}}, sort_keys=True))
"""

#: the serve counts that do not depend on how requests fall into
#: micro-batches (batch counts, sizes and dedupe ratios do)
SERVE_STABLE_COUNTS = ("routing.cache.misses", "serve.whatif.blocks",
                       "core.transient_state.calls", "core.state_log_len")


def child_counts(name: str, hash_seed: int) -> dict:
    script = COUNTS_SCRIPT.format(src=str(ROOT / "src"), here=str(HERE),
                                  toy=TOY_SOURCE, name=name)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONHASHSEED": str(hash_seed), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.strip().splitlines()[-1])
    if name == "serve":
        counts = {k: counts[k] for k in SERVE_STABLE_COUNTS}
    return counts


@pytest.mark.parametrize("name", ["fig15", "pod", "health", "serve"])
def test_layer_counts_repeat_across_runs_and_hash_seeds(name):
    first = child_counts(name, 0)
    assert first == child_counts(name, 0)
    assert first == child_counts(name, 7)
    assert any(v for v in first.values())


def test_benchmark_json_names_what_the_code_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(run.REP_COST_S)
    assert doc["paths"] == ["hpnbench"]
    # every per-layer metric the worker derives is declared
    derived = set(worker.layer_metrics(
        [], {"setup": (0.0, 1.0), "run": (1.0, 2.0)},
        {"layer": {}, "extra": {}}))
    assert derived <= {m["name"] for m in doc["per_layer"]}


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "hpnbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "hpnbench/run.py", "--workload", "pod", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "src/repro" in proc.stderr
