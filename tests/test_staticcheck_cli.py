"""CLI acceptance scenarios for the fabric and lint families of ``repro check``.

The headline scenario: seed an HPN fabric with TWO independent
miswirings (a single-ToR NIC and a cross-plane aggregation link), then
assert one ``repro check --family TOPO,WIRE,FWD`` run reports both
diagnostics with distinct rule ids, exits non-zero, and round-trips
through JSON. ``TestPinnedVerdicts`` pins the gate's full verdict --
exit code, every diagnostic, probe flows walked -- on three fabrics and
one lint fixture.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.cli import main as cli_main
from repro.core import save_topology
from repro.core.entities import PortKind
from repro.telemetry import swap_access_links
from repro.topos import HpnSpec, build_hpn
from repro.topos.hpn import agg_name, tor_name

SPEC = HpnSpec(
    segments_per_pod=1,
    hosts_per_segment=4,
    backup_hosts_per_segment=0,
    aggs_per_plane=2,
    agg_core_uplinks=0,
)

FABRIC = ["check", "--family", "TOPO,WIRE,FWD"]


def inject_miswirings(topo) -> None:
    """Two independent faults, two analyzer families."""
    # fault 1: a NIC whose second leg is re-terminated on its plane-0
    # ToR -- the NIC now reaches a single ToR (dual-ToR violation)
    nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
    port1 = topo.port(nic.ports[1])
    old = topo.links.pop(port1.link_id)
    topo.port(old.a).link_id = None
    topo.port(old.b).link_id = None
    extra = topo.alloc_port(tor_name(0, 0, 0, 0), 200.0, PortKind.DOWN)
    topo.wire(nic.ports[1], extra.ref)
    # fault 2: an aggregation uplink that crosses planes
    up = topo.alloc_port(tor_name(0, 0, 1, 0), 400.0, PortKind.UP)
    down = topo.alloc_port(agg_name(0, 1, 0), 400.0, PortKind.DOWN)
    topo.wire(up.ref, down.ref)


def miswired_fabric():
    topo = build_hpn(SPEC)
    inject_miswirings(topo)
    return topo


def cable_swap_fabric():
    """``repro build --segments 2 --hosts 8 --aggs 2`` with the port-0
    cables of host0 rail 0 and host1 rail 1 crossed."""
    topo = build_hpn(HpnSpec(segments_per_pod=2, hosts_per_segment=8,
                             backup_hosts_per_segment=0, aggs_per_plane=2))
    swap_access_links(topo,
                      topo.hosts["pod0/seg0/host0"].nic_for_rail(0),
                      topo.hosts["pod0/seg0/host1"].nic_for_rail(1))
    return topo


@pytest.fixture()
def miswired_path(tmp_path):
    path = str(tmp_path / "miswired.json")
    save_topology(miswired_fabric(), path)
    return path


@pytest.fixture()
def clean_path(tmp_path):
    path = str(tmp_path / "clean.json")
    save_topology(build_hpn(SPEC), path)
    return path


class TestValidateAll:
    """The fabric families (TOPO/WIRE/FWD) in one collecting run."""

    def test_both_miswirings_in_one_json_run(self, miswired_path, capsys):
        rc = cli_main(FABRIC + ["-i", miswired_path, "--format", "json"])
        assert rc != 0
        payload = json.loads(capsys.readouterr().out)  # JSON round-trip
        assert payload["ok"] is False
        ids = {d["rule_id"] for d in payload["diagnostics"]}
        # both injected faults surface, under distinct rule ids
        assert "TOPO002" in ids  # single-ToR NIC
        assert "TOPO003" in ids  # cross-plane aggregation link
        messages = " ".join(d["message"] for d in payload["diagnostics"])
        assert "expected 2 distinct (dual-ToR)" in messages
        assert agg_name(0, 1, 0) in messages

    def test_text_mode_groups_families(self, miswired_path, capsys):
        rc = cli_main(FABRIC + ["-i", miswired_path])
        out = capsys.readouterr().out
        assert rc == 1
        for rid in ("TOPO002", "WIRE001", "FWD002"):
            assert rid in out
        assert out.rstrip().endswith("20 error(s), 0 warning(s), 0 info")

    def test_clean_topology_passes(self, clean_path, capsys):
        rc = cli_main(FABRIC + ["-i", clean_path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_clean_json_report(self, clean_path, capsys):
        rc = cli_main(FABRIC + ["-i", clean_path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True
        assert payload["stats"]["fwd_flows_walked"] > 0

    def test_built_topology_without_input(self, capsys):
        rc = cli_main(FABRIC + ["--segments", "1", "--hosts", "4",
                                "--aggs", "2"])
        assert rc == 0


#: the LINT fixture: one LINT001, one LINT003 and one LINT004 finding
LINT_FIXTURE = (
    "import random\n"
    "def same(a_gbps, b_gbps):\n"
    "    return a_gbps == b_gbps\n"
    "x = random.random()\n"
    "class T:\n"
    "    latency: float = 0.5\n"
)


class TestLintCli:
    def test_nonzero_on_float_equality_fixture(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def same(a_gbps, b_gbps):\n"
                       "    return a_gbps == b_gbps\n")
        rc = cli_main(["check", "--family", "LINT", str(bad)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "LINT001" in out

    def test_zero_on_clean_file(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("import math\n"
                        "def same(a_gbps, b_gbps):\n"
                        "    return math.isclose(a_gbps, b_gbps)\n")
        assert cli_main(["check", "--family", "LINT", str(good)]) == 0

    def test_zero_on_shipped_tree(self, capsys):
        """``repro check --family LINT src/repro`` exits 0."""
        import repro

        rc = cli_main(["check", "--family", "LINT", repro.__path__[0]])
        assert rc == 0

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        rc = cli_main(["check", "--family", "LINT", str(bad),
                       "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert [d["rule_id"] for d in payload["diagnostics"]] == ["LINT003"]

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        warn = tmp_path / "warn.py"
        warn.write_text("class T:\n    latency: float = 0.5\n")
        assert cli_main(["check", "--family", "LINT", str(warn)]) == 0
        assert cli_main(["check", "--family", "LINT", str(warn),
                         "--strict"]) == 1

    def test_list_rules_catalogue(self, capsys):
        rc = cli_main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rid in ("TOPO001", "TOPO010", "WIRE001", "FWD004", "LINT004"):
            assert rid in out


def _fwd002(dst: int, agg: int):
    src, dst_host = "pod0/seg0/host0", f"pod0/seg0/host{dst}"
    return ("FWD002",
            f"{src} -> {dst_host}: pod0/plane0/agg{agg} has no live "
            f"candidate towards {dst_host}/nic1",
            f"{src}->{dst_host}")


#: (exit code, every diagnostic as (rule id, message, object), probe
#: flows walked), as the removed ``validate --all`` command reported
#: them before ``repro check`` became the one gate
PINNED = {
    "miswired": (1, Counter(
        [_fwd002(dst, agg) for dst in (1, 2, 3) for agg in (0, 1)] * 2
        + [
            ("TOPO002", "pod0/seg0/host0/nic1 reaches 1 ToR(s) "
             "[pod0/seg0/tor-r0p0], expected 2 distinct (dual-ToR)",
             "pod0/seg0/host0/nic1"),
            ("TOPO003", "cross-plane link pod0/seg0/tor-r1p0 (plane 0) "
             "<-> pod0/plane1/agg0 (plane 1)", "link97"),
            ("TOPO003", "pod0/seg0/host0/nic1 port 1 lands in plane 0 "
             "(via pod0/seg0/tor-r0p0)", "pod0/seg0/host0/nic1"),
            ("TOPO004", "rail 0 of pod0/seg0 is served by 2 ToR sets: "
             "{pod0/seg0/tor-r0p0} vs "
             "{pod0/seg0/tor-r0p0, pod0/seg0/tor-r0p1}", "pod0/seg0/rail0"),
            ("TOPO007", "pod0/seg0/tor-r0p0 has 5 downlinks, segment "
             "budget is 4", "pod0/seg0/tor-r0p0"),
            ("TOPO007", "pod0/seg0/tor-r1p0 has 3 uplinks, spec budget "
             "is 2", "pod0/seg0/tor-r1p0"),
            ("TOPO010", "pod0/seg0/tor-r1p0 (plane 0) uplinks leave its "
             "plane via pod0/plane1/agg0", "pod0/seg0/tor-r1p0"),
            ("WIRE001", "[access-miswire] pod0/seg0/host0/nic1 port 1: "
             "wired to pod0/seg0/tor-r0p0, blueprint says "
             "pod0/seg0/tor-r0p1", None),
        ]), 48),
    "clean": (0, Counter(), 48),
    "cable-swap": (1, Counter([
        ("TOPO004", "rail 0 of pod0/seg0 is served by 2 ToR sets: "
         "{pod0/seg0/tor-r0p0, pod0/seg0/tor-r0p1} vs "
         "{pod0/seg0/tor-r0p1, pod0/seg0/tor-r1p0}", "pod0/seg0/rail0"),
        ("TOPO004", "rail 1 of pod0/seg0 is served by 2 ToR sets: "
         "{pod0/seg0/tor-r0p0, pod0/seg0/tor-r1p1} vs "
         "{pod0/seg0/tor-r1p0, pod0/seg0/tor-r1p1}", "pod0/seg0/rail1"),
        ("WIRE001", "[access-miswire] pod0/seg0/host0/nic1 port 0: wired "
         "to pod0/seg0/tor-r1p0, blueprint says pod0/seg0/tor-r0p0", None),
        ("WIRE001", "[access-miswire] pod0/seg0/host1/nic2 port 0: wired "
         "to pod0/seg0/tor-r0p0, blueprint says pod0/seg0/tor-r1p0", None),
    ]), 256),
}

FABRICS = {
    "miswired": miswired_fabric,
    "clean": lambda: build_hpn(SPEC),
    "cable-swap": cable_swap_fabric,
}


class TestPinnedVerdicts:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_fabric_verdict(self, name, tmp_path, capsys):
        path = str(tmp_path / f"{name}.json")
        save_topology(FABRICS[name](), path)
        rc = cli_main(FABRIC + ["-i", path, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        got = Counter((d["rule_id"], d["message"], d["location"]["obj"])
                      for d in payload["diagnostics"])
        assert (rc, got, payload["stats"]["fwd_flows_walked"]) == PINNED[name]

    def test_lint_verdict(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(LINT_FIXTURE)
        rc = cli_main(["check", "--family", "LINT", str(bad),
                       "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1 and payload["ok"] is False
        assert payload["summary"] == {
            "errors": 2, "warnings": 1, "info": 0, "suppressed": 0,
        }
        assert [
            (d["rule_id"], d["severity"], d["location"]["line"], d["message"])
            for d in payload["diagnostics"]
        ] == [
            ("LINT001", "error", 3, "float == on a_gbps; use a tolerance "
             "(math.isclose) for rate/time comparisons"),
            ("LINT003", "error", 4, "random.random() uses the unseeded "
             "global generator; use an injected random.Random(seed)"),
            ("LINT004", "warning", 6, "T.latency is a numeric quantity "
             "without a unit suffix (_gbps, _bytes, _s, ...)"),
        ]
        assert {d["location"]["file"] for d in payload["diagnostics"]} == {
            str(bad)}
