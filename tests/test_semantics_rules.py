"""SEM rule family: positive/negative fixtures, suppression, baseline.

Each rule gets a fixture project reproducing the pattern it exists to
catch (the SEM001 positive fixture is the *pre-fix*
``reliability/singlepoint.py`` code, per the issue's acceptance
criterion) and a negative twin showing the sanctioned idiom passes.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.staticcheck.diagnostics import Severity
from repro.staticcheck.semantics import (
    Baseline,
    ProjectIndex,
    build_project_index,
    fingerprint,
    run_semantic_rules,
)

from tests.test_semantics_index import REPO_SRC, write_tree


def run_rules(tmp_path, files, rules=None):
    index = ProjectIndex(write_tree(tmp_path, files))
    return run_semantic_rules(index, rule_ids=rules)


def active_ids(report):
    return [d.rule_id for d in report.active]


# ----------------------------------------------------------------------
# SEM001: epoch discipline
# ----------------------------------------------------------------------
#: the pre-fix reliability/singlepoint.py mutation pattern, verbatim in
#: shape: direct ``link.up`` flips around a connectivity probe
SINGLEPOINT_PREFIX = {
    "reliability/singlepoint.py": (
        "def analyze_access_link_spof(topo):\n"
        "    spof = []\n"
        "    for link in topo.links.values():\n"
        "        link.up = False\n"
        "        try:\n"
        "            if disconnected(topo):\n"
        "                spof.append(link.link_id)\n"
        "        finally:\n"
        "            link.up = True\n"
        "    return spof\n"
        "\n"
        "def disconnected(topo):\n"
        "    return False\n"
    ),
}


class TestSem001:
    def test_catches_the_singlepoint_prefix_pattern(self, tmp_path):
        """Acceptance criterion: the pre-fix code trips SEM001."""
        report = run_rules(tmp_path, SINGLEPOINT_PREFIX, rules=["SEM001"])
        hits = report.active
        assert [d.rule_id for d in hits] == ["SEM001", "SEM001"]
        assert all(d.severity is Severity.ERROR for d in hits)
        assert {d.location.line for d in hits} == {4, 9}
        assert "set_link_state" in hits[0].message

    def test_mutators_and_transient_state_pass(self, tmp_path):
        files = {
            "reliability/singlepoint.py": (
                "def analyze(topo):\n"
                "    with topo.transient_state():\n"
                "        topo.set_link_state(0, up=False)\n"
                "        topo.fail_node('tor')\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM001"]).active == []

    def test_sanctioned_core_module_passes(self, tmp_path):
        files = {
            "core/topology.py": (
                "class Topology:\n"
                "    def set_link_state(self, lid, up):\n"
                "        self.links[lid].up = up\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM001"]).active == []

    def test_backend_marker_sanctions_a_module(self, tmp_path):
        files = {
            "fabric/ocs.py": (
                "# repro: topology-backend\n"
                "def reconfigure(topo, link):\n"
                "    link.up = False\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM001"]).active == []

    def test_structure_rewire_requires_notify(self, tmp_path):
        bad = {
            "telemetry/probes.py": (
                "def swap(topo, port):\n"
                "    port.link_id = None\n"
            ),
        }
        good = {
            "telemetry/probes.py": (
                "def swap(topo, port):\n"
                "    port.link_id = None\n"
                "    topo.notify_structure_changed()\n"
            ),
        }
        assert active_ids(run_rules(tmp_path / "a", bad,
                                    rules=["SEM001"])) == ["SEM001"]
        assert run_rules(tmp_path / "b", good, rules=["SEM001"]).active == []

    def test_adjacency_mutation_requires_notify(self, tmp_path):
        files = {
            "telemetry/probes.py": (
                "def unplug(topo, lid):\n"
                "    topo.links.pop(lid)\n"
            ),
        }
        report = run_rules(tmp_path, files, rules=["SEM001"])
        assert active_ids(report) == ["SEM001"]

    def test_noqa_suppresses_but_stays_visible(self, tmp_path):
        files = {
            "reliability/hack.py": (
                "def flip(link):\n"
                "    link.up = False  # repro: noqa[SEM001]\n"
            ),
        }
        report = run_rules(tmp_path, files, rules=["SEM001"])
        assert report.active == [] and report.ok
        assert len(report.diagnostics) == 1
        assert report.diagnostics[0].suppressed


# ----------------------------------------------------------------------
# SEM002: determinism in engine-cached paths
# ----------------------------------------------------------------------
ENGINE_STUB = {
    "engine/spec.py": (
        "def experiment(name):\n"
        "    def deco(fn):\n"
        "        return fn\n"
        "    return deco\n"
    ),
}


class TestSem002:
    def test_wall_clock_and_entropy_reachable_from_experiment(
        self, tmp_path
    ):
        files = dict(ENGINE_STUB)
        files["exp/runs.py"] = (
            "import time\n"
            "from ..engine.spec import experiment\n"
            "\n"
            "@experiment('demo')\n"
            "def run(params, seed):\n"
            "    return helper()\n"
            "\n"
            "def helper():\n"
            "    return time.time()\n"
        )
        files["exp/util.py"] = (
            "import random\n"
            "def unreached():\n"
            "    return random.random()\n"
        )
        report = run_rules(tmp_path, files, rules=["SEM002"])
        hits = report.active
        # helper() is reachable and flagged; util.unreached() is NOT
        # reachable, so its unseeded randomness is LINT003's problem,
        # not SEM002's
        assert [d.rule_id for d in hits] == ["SEM002"]
        assert "wall clock" in hits[0].message
        assert hits[0].location.file.endswith("runs.py")

    def test_seeded_rng_and_perf_counter_pass(self, tmp_path):
        files = dict(ENGINE_STUB)
        files["exp/runs.py"] = (
            "import random\n"
            "import time\n"
            "from ..engine.spec import experiment\n"
            "\n"
            "@experiment('demo')\n"
            "def run(params, seed):\n"
            "    rng = random.Random(seed)\n"
            "    t0 = time.perf_counter()\n"
            "    return rng.random() + t0\n"
        )
        assert run_rules(tmp_path, files, rules=["SEM002"]).active == []

    def test_unseeded_global_random_flagged(self, tmp_path):
        files = dict(ENGINE_STUB)
        files["exp/runs.py"] = (
            "import random\n"
            "from ..engine.spec import experiment\n"
            "\n"
            "@experiment('demo')\n"
            "def run(params, seed):\n"
            "    return random.choice([1, 2])\n"
        )
        hits = run_rules(tmp_path, files, rules=["SEM002"]).active
        assert [d.rule_id for d in hits] == ["SEM002"]
        assert hits[0].severity is Severity.ERROR

    def test_set_iteration_is_a_warning(self, tmp_path):
        files = dict(ENGINE_STUB)
        files["exp/runs.py"] = (
            "from ..engine.spec import experiment\n"
            "\n"
            "@experiment('demo')\n"
            "def run(params, seed):\n"
            "    seen = {1, 2, 3}\n"
            "    return [x for x in seen]\n"
        )
        hits = run_rules(tmp_path, files, rules=["SEM002"]).active
        assert [d.rule_id for d in hits] == ["SEM002"]
        assert hits[0].severity is Severity.WARNING
        assert "sorted" in hits[0].message

    def test_reaches_through_function_local_imports(self, tmp_path):
        """The lazy-import idiom every builtin experiment uses."""
        files = dict(ENGINE_STUB)
        files["exp/runs.py"] = (
            "from ..engine.spec import experiment\n"
            "\n"
            "@experiment('demo')\n"
            "def run(params, seed):\n"
            "    from .deep import simulate\n"
            "    return simulate()\n"
        )
        files["exp/deep.py"] = (
            "import os\n"
            "def simulate():\n"
            "    return os.urandom(4)\n"
        )
        hits = run_rules(tmp_path, files, rules=["SEM002"]).active
        assert [d.rule_id for d in hits] == ["SEM002"]
        assert hits[0].location.file.endswith("deep.py")


# ----------------------------------------------------------------------
# SEM003: cache coherence
# ----------------------------------------------------------------------
class TestSem003:
    def test_memo_read_without_epoch_check_flagged(self, tmp_path):
        files = {
            "routing/cache.py": (
                "class R:\n"
                "    def __init__(self, topo):\n"
                "        self._cache = {}\n"
                "        self._state_cursor = 0\n"
                "    def path_for(self, key):\n"
                "        return self._cache[key]\n"
            ),
        }
        hits = run_rules(tmp_path, files, rules=["SEM003"]).active
        assert [d.rule_id for d in hits] == ["SEM003"]
        assert "path_for" in hits[0].message

    def test_sync_call_on_the_path_passes(self, tmp_path):
        files = {
            "routing/cache.py": (
                "class R:\n"
                "    def __init__(self, topo):\n"
                "        self._topo = topo\n"
                "        self._cache = {}\n"
                "        self._state_cursor = 0\n"
                "    def _sync(self):\n"
                "        if self._topo.state_epoch != self._state_cursor:\n"
                "            self._cache.clear()\n"
                "    def path_for(self, key):\n"
                "        self._sync()\n"
                "        return self._cache[key]\n"
                "    def direct_check(self, key):\n"
                "        if self._topo.state_epoch != self._state_cursor:\n"
                "            self._cache.clear()\n"
                "        return self._cache[key]\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM003"]).active == []

    def test_class_without_epoch_field_not_checked(self, tmp_path):
        files = {
            "routing/cache.py": (
                "class Plain:\n"
                "    def __init__(self):\n"
                "        self._cache = {}\n"
                "    def get(self, key):\n"
                "        return self._cache[key]\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM003"]).active == []


# ----------------------------------------------------------------------
# SEM004: layering
# ----------------------------------------------------------------------
class TestSem004:
    def test_core_importing_routing_is_a_violation(self, tmp_path):
        files = {
            "core/topology.py": "class Topology:\n    pass\n",
            "core/bad.py": "from ..routing.cache import R\n",
            "routing/cache.py": "class R:\n    pass\n",
        }
        hits = run_rules(tmp_path, files, rules=["SEM004"]).active
        assert [d.rule_id for d in hits] == ["SEM004"]
        assert "'core' imports 'routing'" in hits[0].message
        assert hits[0].location.line == 1

    def test_allowed_edge_passes(self, tmp_path):
        files = {
            "core/topology.py": "class Topology:\n    pass\n",
            "routing/cache.py": (
                "from ..core.topology import Topology\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM004"]).active == []

    def test_unknown_package_gets_a_table_nudge(self, tmp_path):
        files = {
            "core/topology.py": "class Topology:\n    pass\n",
            "newpkg/thing.py": "from ..core.topology import Topology\n",
        }
        hits = run_rules(tmp_path, files, rules=["SEM004"]).active
        assert [d.rule_id for d in hits] == ["SEM004"]
        assert hits[0].severity is Severity.WARNING
        assert "allowed-imports table" in hits[0].message

    def test_real_tree_layering_is_clean(self):
        report = run_semantic_rules(build_project_index([REPO_SRC]),
                                    rule_ids=["SEM004"])
        assert report.active == []

    def test_dotted_subpackage_key_overrides_parent(self, tmp_path):
        # plain obs may import engine (overhead bench); obs.health has
        # its own, stricter entry with engine deliberately absent
        files = {
            "engine/runner.py": "class R:\n    pass\n",
            "obs/export.py": "from ..engine.runner import R\n",
            "obs/health/detectors.py": (
                "from ...engine.runner import R\n"
            ),
        }
        hits = run_rules(tmp_path, files, rules=["SEM004"]).active
        assert [d.rule_id for d in hits] == ["SEM004"]
        assert "'obs.health' imports 'engine'" in hits[0].message
        assert hits[0].location.file.endswith("detectors.py")

    def test_fabric_importing_cluster_is_a_violation(self, tmp_path):
        # cluster reaches fabric through collective; the reverse edge
        # would close a package cycle
        files = {
            "cluster.py": "class Cluster:\n    pass\n",
            "fabric/workload.py": "from ..cluster import Cluster\n",
        }
        hits = run_rules(tmp_path, files, rules=["SEM004"]).active
        assert [d.rule_id for d in hits] == ["SEM004"]
        assert "'fabric' imports 'cluster'" in hits[0].message
        assert hits[0].location.file.endswith("workload.py")

    def test_serve_importing_topos_is_a_violation(self, tmp_path):
        # the daemon serves a topology it is handed; it builds none
        files = {
            "topos/hpn.py": "def build_hpn(spec):\n    pass\n",
            "serve/state.py": "from ..topos.hpn import build_hpn\n",
        }
        hits = run_rules(tmp_path, files, rules=["SEM004"]).active
        assert [d.rule_id for d in hits] == ["SEM004"]
        assert "'serve' imports 'topos'" in hits[0].message
        assert hits[0].location.file.endswith("state.py")

    def test_obs_health_simulation_edges_allowed(self, tmp_path):
        files = {
            "fleet/sim.py": "class F:\n    pass\n",
            "obs/metrics.py": "class M:\n    pass\n",
            "obs/health/scenario.py": (
                "from ...fleet.sim import F\n"
                "from ..metrics import M\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM004"]).active == []

    def test_obs_health_never_imports_engine_in_real_tree(self):
        # regression for the replay-anywhere guarantee: detectors (and
        # everything else under obs.health) must not depend on the
        # engine layer -- the engine calls into obs.health, never back
        index = ProjectIndex(REPO_SRC)
        health_modules = [m for m in index.modules.values()
                          if m.name.startswith("repro.obs.health")]
        assert health_modules, "obs.health missing from the index"
        for mod in health_modules:
            engine_edges = [t for t in mod.import_edges
                            if t.startswith("repro.engine")]
            assert engine_edges == [], (
                f"{mod.name} imports {engine_edges}"
            )


# ----------------------------------------------------------------------
# SEM005: recorder hot-path discipline
# ----------------------------------------------------------------------
class TestSem005:
    def test_truthiness_guard_flagged(self, tmp_path):
        files = {
            "routing/cache.py": (
                "def route(rec):\n"
                "    if rec:\n"
                "        rec.count('x')\n"
                "    if not rec:\n"
                "        return None\n"
            ),
        }
        hits = run_rules(tmp_path, files, rules=["SEM005"]).active
        assert [d.rule_id for d in hits] == ["SEM005", "SEM005"]
        assert "is not None" in hits[0].message

    def test_identity_guard_passes(self, tmp_path):
        files = {
            "routing/cache.py": (
                "class R:\n"
                "    def route(self):\n"
                "        if self._rec is not None:\n"
                "            self._rec.count('x')\n"
                "        if self._rec is None:\n"
                "            return None\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM005"]).active == []

    def test_attribute_recorder_in_boolop_flagged(self, tmp_path):
        files = {
            "routing/cache.py": (
                "class R:\n"
                "    def route(self, hot):\n"
                "        if hot and self._recorder:\n"
                "            self._recorder.count('x')\n"
            ),
        }
        hits = run_rules(tmp_path, files, rules=["SEM005"]).active
        assert [d.rule_id for d in hits] == ["SEM005"]

    def test_obs_package_is_exempt(self, tmp_path):
        files = {
            "obs/record.py": (
                "def enabled(rec):\n"
                "    return bool(rec) if rec else False\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM005"]).active == []


# ----------------------------------------------------------------------
# SEM006: dirlink/dense index hygiene
# ----------------------------------------------------------------------
class TestSem006:
    def test_raw_dirlink_index_is_an_error(self, tmp_path):
        files = {
            "fabric/incidence.py": (
                "class Idx:\n"
                "    def bad(self, dirlink):\n"
                "        return self.cap[dirlink]\n"
            ),
        }
        hits = run_rules(tmp_path, files, rules=["SEM006"]).active
        assert [d.rule_id for d in hits] == ["SEM006"]
        assert hits[0].severity is Severity.ERROR
        assert "dense" in hits[0].message

    def test_loop_established_and_dense_param_pass(self, tmp_path):
        files = {
            "fabric/incidence.py": (
                "class Idx:\n"
                "    def good(self):\n"
                "        for dense in range(len(self.cap)):\n"
                "            self.cap[dense] += 1\n"
                "    def lookup(self, dense):\n"
                "        return self.weight[dense]\n"
                "    def mapped(self, dirlink):\n"
                "        dense = self.dense_of[dirlink]\n"
                "        return self.cap[dense]\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM006"]).active == []

    def test_unestablished_index_is_a_warning(self, tmp_path):
        files = {
            "fabric/solver.py": (
                "def fill(idx, k):\n"
                "    residual = idx.cap\n"
                "    return residual[k]\n"
            ),
        }
        hits = run_rules(tmp_path, files, rules=["SEM006"]).active
        assert [d.rule_id for d in hits] == ["SEM006"]
        assert hits[0].severity is Severity.WARNING

    def test_other_modules_not_in_scope(self, tmp_path):
        files = {
            "routing/stuff.py": (
                "def f(x, dirlink):\n"
                "    return x.cap[dirlink]\n"
            ),
        }
        assert run_rules(tmp_path, files, rules=["SEM006"]).active == []


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_suppresses_and_detects_stale(self, tmp_path):
        report = run_rules(tmp_path / "t", SINGLEPOINT_PREFIX,
                           rules=["SEM001"])
        assert len(report.active) == 2
        baseline = Baseline.from_report(report)
        path = tmp_path / "baseline.json"
        baseline.save(str(path))
        loaded = Baseline.load(str(path))
        assert loaded.entries == baseline.entries
        # both flips share (rule, file, message): one fingerprint with
        # a multiset count of 2, so debt can't silently grow behind it
        assert sorted(k[0] for k in loaded.entries) == ["SEM001"]
        assert sum(loaded.entries.values()) == 2
        hit = loaded.apply(report)
        assert hit == 2 and report.ok
        assert loaded.stale_entries(report) == []
        # debt paid down: an empty report leaves every entry stale
        empty = run_rules(tmp_path / "t3",
                          {"reliability/ok.py": "x = 1\n"},
                          rules=["SEM001"])
        assert len(loaded.stale_entries(empty)) == 1

    def test_missing_file_is_empty(self, tmp_path):
        b = Baseline.load(str(tmp_path / "nope.json"))
        assert not b.entries

    def test_multiset_matching_does_not_absorb_new_debt(self, tmp_path):
        report = run_rules(tmp_path, SINGLEPOINT_PREFIX, rules=["SEM001"])
        d = report.active[0]
        single = Baseline(entries=__import__("collections").Counter(
            {fingerprint(d): 1}
        ))
        # both findings share a fingerprint prefix but only one credit
        # exists: the second identical finding still gates
        same = [x for x in report.active if fingerprint(x) == fingerprint(d)]
        single.apply(report)
        if len(same) > 1:
            assert not report.ok
        else:
            assert len(report.active) == 1


# ----------------------------------------------------------------------
# the whole-tree gate (acceptance criteria)
# ----------------------------------------------------------------------
class TestWholeTree:
    def test_full_pass_is_clean_and_fast(self):
        t0 = time.perf_counter()
        report = run_semantic_rules(build_project_index([REPO_SRC]))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"semantic pass took {elapsed:.1f}s"
        assert report.active == [], "\n".join(
            d.render() for d in report.active
        )
        assert report.stats["semantic_rules_run"] == 6
        assert report.stats["index_modules"] > 50
        assert report.stats["sem002_reachable_functions"] > 20
