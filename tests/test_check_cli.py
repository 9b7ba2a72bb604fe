"""``repro check``: the unified gate, formats, families, baseline flow.

SARIF output is validated structurally against the 2.1.0 shape GitHub
code scanning ingests: schema/version headers, a tool driver with rule
metadata, and results whose locations carry artifact URIs and regions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from tests.test_semantics_index import REPO_SRC, write_tree

BAD_TREE = {
    "reliability/singlepoint.py": (
        "def flip(link):\n"
        "    link.up = False\n"
    ),
}


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCheckCommand:
    def test_sem_family_over_repo_is_clean(self, capsys):
        code, out = run_cli(capsys, "check", "--family", "SEM", REPO_SRC)
        assert code == 0
        assert "0 error(s)" in out

    def test_all_families_over_repo_are_clean(self, capsys):
        code, out = run_cli(
            capsys, "check", REPO_SRC, "--hosts", "4", "--aggs", "2",
            "--probe-pairs", "4",
        )
        assert code == 0
        assert "0 error(s)" in out

    def test_list_rules_spans_every_family(self, capsys):
        code, out = run_cli(capsys, "check", "--list-rules")
        assert code == 0
        for rid in ("TOPO001", "LINT001", "SEM001", "SEM006"):
            assert rid in out

    def test_unknown_family_is_a_usage_error(self, capsys):
        code = cli_main(["check", "--family", "NOPE", REPO_SRC])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule family" in err

    def test_violations_gate_with_nonzero_exit(self, tmp_path, capsys):
        pkg = write_tree(tmp_path, BAD_TREE)
        code, out = run_cli(capsys, "check", "--family", "SEM", pkg)
        assert code == 1
        assert "SEM001" in out


class TestFormats:
    def test_json_format_round_trips(self, tmp_path, capsys):
        pkg = write_tree(tmp_path, BAD_TREE)
        code, out = run_cli(
            capsys, "check", "--family", "SEM", "--format", "json", pkg
        )
        data = json.loads(out)
        assert code == 1 and data["ok"] is False
        assert data["summary"]["errors"] == 1
        assert data["diagnostics"][0]["rule_id"] == "SEM001"

    def test_sarif_shape(self, tmp_path, capsys):
        pkg = write_tree(tmp_path, BAD_TREE)
        code, out = run_cli(
            capsys, "check", "--family", "SEM", "--format", "sarif", pkg
        )
        assert code == 1
        sarif = json.loads(out)
        assert sarif["version"] == "2.1.0"
        assert sarif["$schema"].endswith("sarif-2.1.0.json")
        (run,) = sarif["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-check"
        rule_ids = {r["id"] for r in driver["rules"]}
        assert "SEM001" in rule_ids
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in (
                "error", "warning", "note"
            )
        (result,) = [r for r in run["results"] if r["ruleId"] == "SEM001"]
        assert result["level"] == "error"
        assert result["message"]["text"]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("singlepoint.py")
        assert loc["region"]["startLine"] == 2

    def test_sarif_marks_suppressions(self, tmp_path, capsys):
        files = {
            "reliability/hack.py": (
                "def flip(link):\n"
                "    link.up = False  # repro: noqa[SEM001]\n"
            ),
        }
        pkg = write_tree(tmp_path, files)
        code, out = run_cli(
            capsys, "check", "--family", "SEM", "--format", "sarif", pkg
        )
        assert code == 0
        sarif = json.loads(out)
        (result,) = [
            r for r in sarif["runs"][0]["results"]
            if r["ruleId"] == "SEM001"
        ]
        assert result["suppressions"] == [{"kind": "inSource"}]

    def test_lint_sarif_parity(self, tmp_path, capsys):
        """The LINT family shares the renderer, so sarif/json both work."""
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n",
                       encoding="utf-8")
        code, out = run_cli(
            capsys, "check", "--family", "LINT", "--format", "sarif", str(bad)
        )
        assert code == 1
        sarif = json.loads(out)
        assert any(
            r["ruleId"].startswith("LINT")
            for r in sarif["runs"][0]["results"]
        )
        code, out = run_cli(capsys, "check", "--family", "LINT",
                            "--format", "json", str(bad))
        assert code == 1 and json.loads(out)["ok"] is False


class TestBaselineFlow:
    def test_update_then_gate_then_stale(self, tmp_path, capsys):
        pkg = write_tree(tmp_path, BAD_TREE)
        baseline = str(tmp_path / "baseline.json")
        # 1: gate fails on the fresh violation
        code, _ = run_cli(capsys, "check", "--family", "SEM",
                          "--baseline", baseline, pkg)
        assert code == 1
        # 2: grandfather it
        code = cli_main(["check", "--family", "SEM", "--baseline",
                         baseline, "--update-baseline", pkg])
        capsys.readouterr()
        assert code == 0
        data = json.loads(Path(baseline).read_text(encoding="utf-8"))
        assert data["version"] == 1 and len(data["entries"]) == 1
        # 3: gate passes, finding visible as suppressed
        code, out = run_cli(capsys, "check", "--family", "SEM",
                            "--format", "json", "--baseline", baseline, pkg)
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["suppressed"] == 1
        # 4: fix the code; the stale baseline entry is called out
        (Path(pkg) / "reliability" / "singlepoint.py").write_text(
            "def flip(topo, lid):\n"
            "    topo.set_link_state(lid, up=False)\n",
            encoding="utf-8",
        )
        code = cli_main(["check", "--family", "SEM", "--baseline",
                         baseline, pkg])
        captured = capsys.readouterr()
        assert code == 0
        assert "stale baseline" in captured.err

    def test_committed_baseline_is_empty(self):
        """Repo policy: no grandfathered ERROR-severity debt."""
        repo_root = Path(REPO_SRC).parent.parent
        data = json.loads(
            (repo_root / "SEM_BASELINE.json").read_text(encoding="utf-8")
        )
        assert data == {"version": 1, "entries": []}
