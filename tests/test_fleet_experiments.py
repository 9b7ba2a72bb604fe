"""Fleet experiments in the engine catalogue and the `repro fleet` CLI."""

from __future__ import annotations

import json

from repro.cli import main
from repro.engine import Runner, get_experiment
from repro.obs import validate_chrome_trace

SMALL = {"segments": 2, "hosts_per_segment": 8, "aggs_per_plane": 4}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCatalogue:
    def test_fleet_experiments_registered(self):
        for name in ("fleet.churn", "fleet.interference"):
            defn = get_experiment(name)
            assert defn.defaults  # discoverable defaults

    def test_churn_payload_shape(self):
        spec = get_experiment("fleet.churn").spec(
            seed=4, arrivals=25, snapshots=2, **SMALL
        )
        payload = Runner(cache=None).run([spec]).payloads[0]
        assert payload["arrivals"] == 25
        assert payload["admitted"] + payload["rejected"] == 25
        assert payload["admitted"] == payload["completed"]
        assert len(payload["snapshots"]) == 2
        assert 0.0 <= payload["gpu_utilization"] <= 1.0

    def test_interference_orders_policies_by_locality(self):
        spec = get_experiment("fleet.interference").spec(
            seed=4, segments=4, **{k: v for k, v in SMALL.items()
                                   if k != "segments"}
        )
        payload = Runner(cache=None).run([spec]).payloads[0]
        slow = {
            name: pol["backend"]["mean_slowdown"]
            for name, pol in payload["policies"].items()
        }
        # packing preserves ring locality; interleaving destroys it
        assert slow["pack"] <= slow["spread"] <= slow["interleave"]
        fe = payload["policies"]["pack"]["frontend"]
        kinds = {c["kind"] for c in fe["classes"]}
        assert {"inference", "storage", "checkpoint"} <= kinds

    def test_serial_matches_four_worker_parallel(self):
        specs = [
            get_experiment("fleet.churn").spec(
                seed=s, arrivals=15, snapshots=1, **SMALL
            )
            for s in (1, 2, 3, 4)
        ]
        serial = Runner(cache=None, backend="serial").run(specs)
        parallel = Runner(cache=None, backend="process",
                          max_workers=4).run(specs)
        assert serial.payloads == parallel.payloads
        assert (serial.manifest.canonical_json()
                == parallel.manifest.canonical_json())

    def test_trace_renders_per_job_tracks(self, tmp_path):
        spec = get_experiment("fleet.churn").spec(
            seed=2, arrivals=10, snapshots=1, **SMALL
        )
        result = Runner(cache=None, trace_dir=str(tmp_path)).run([spec])
        doc = json.loads(
            open(result.manifest.artifacts["trace"]).read()
        )
        assert validate_chrome_trace(doc) == []
        threads = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert any(t.startswith("job") for t in threads)
        assert any(
            e.get("ph") == "X" and e["name"] == "job.running"
            for e in doc["traceEvents"]
        )


class TestFleetCli:
    def test_churn_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "fleet", "--segments", "2", "--hosts", "8",
            "--aggs", "4", "--arrivals", "12", "--snapshots", "1",
        )
        assert code == 0
        assert "fleet churn: 12 arrivals" in out
        assert "queue wait" in out and "fragmentation" in out

    def test_interference_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "fleet", "--mode", "interference", "--segments", "4",
            "--hosts", "8", "--aggs", "4",
        )
        assert code == 0
        for policy in ("pack", "spread", "interleave"):
            assert policy in out
        assert "fe/checkpoint" in out

    def test_unknown_policy_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["fleet", "--policy", "bogus"])
