"""CLI surface of the experiment engine: exp list / run / compare."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpList:
    def test_lists_builtin_catalogue(self, capsys):
        code, out, _ = run_cli(capsys, "exp", "list")
        assert code == 0
        for kind in ("reliability.trials", "sweep.oversubscription",
                     "drill.link-failure", "bench.allreduce",
                     "solver.equivalence"):
            assert kind in out
        for retired in ("bench.simcore", "bench.routing", "bench.fleet",
                        "bench.serve"):
            assert retired not in out

    def test_verbose_shows_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "exp", "list", "-v")
        assert code == 0
        assert "defaults:" in out
        assert "gpus=3000" in out


class TestExpRun:
    def _run(self, capsys, tmp_path, *extra):
        return run_cli(
            capsys, "exp", "run", "reliability.trial",
            "--grid", "gpus=256,512", "--set", "months=3",
            "--seed", "42",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest-dir", str(tmp_path / "manifests"),
            *extra,
        )

    def test_cold_then_warm(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path)
        assert code == 0
        assert "2 cache hit(s)" not in out
        assert "manifest:" in out
        code, out, _ = self._run(capsys, tmp_path)
        assert code == 0
        assert "2 cache hit(s), 0 executed" in out

    def test_json_format_prints_manifest(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path, "--format", "json")
        assert code == 0
        manifest = json.loads(out)
        assert len(manifest["records"]) == 2
        assert {r["params"]["gpus"] for r in manifest["records"]} == {256, 512}
        assert all(r["params"]["months"] == 3 for r in manifest["records"])

    def test_process_backend(self, capsys, tmp_path):
        code, out, _ = self._run(capsys, tmp_path, "--backend", "process",
                                 "--workers", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["backend"] == "process"

    def test_unknown_kind_fails_cleanly(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "exp", "run", "no.such.kind",
            "--cache-dir", str(tmp_path / "c"),
            "--manifest-dir", str(tmp_path / "m"),
        )
        assert code == 2
        assert "unknown experiment" in err

    def test_bad_assignment_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["exp", "run", "reliability.trial", "--set", "oops"])


class TestExpCompare:
    def _manifest_paths(self, capsys, tmp_path, seed):
        run_cli(
            capsys, "exp", "run", "reliability.trial",
            "--set", "gpus=256", "--set", "months=3",
            "--seed", str(seed), "--no-cache",
            "--manifest-dir", str(tmp_path / f"m{seed}"),
        )
        mdir = tmp_path / f"m{seed}"
        return [str(mdir / f) for f in sorted(os.listdir(mdir))]

    def test_equivalent_runs_compare_equal(self, capsys, tmp_path):
        (first,) = self._manifest_paths(capsys, tmp_path / "a", 42)
        (second,) = self._manifest_paths(capsys, tmp_path / "b", 42)
        code, out, _ = run_cli(capsys, "exp", "compare", first, second)
        assert code == 0
        assert "equivalent" in out

    def test_different_seeds_compare_different(self, capsys, tmp_path):
        (first,) = self._manifest_paths(capsys, tmp_path / "a", 42)
        (second,) = self._manifest_paths(capsys, tmp_path / "b", 43)
        code, out, _ = run_cli(capsys, "exp", "compare", first, second)
        assert code == 1
        assert "difference" in out

    def test_missing_manifest_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "exp", "compare",
                               str(tmp_path / "nope.json"),
                               str(tmp_path / "nope2.json"))
        assert code == 2
        assert "error" in err
