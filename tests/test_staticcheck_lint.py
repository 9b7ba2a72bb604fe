"""AST lint rules: positive and noqa-suppressed cases per rule."""

from __future__ import annotations

import textwrap

import pytest

from repro.staticcheck import (
    Report,
    RuleRegistrationError,
    Severity,
    get_rule,
    lint_paths,
    lint_source,
)


def lint(source: str, rule_ids=None) -> Report:
    return lint_source(textwrap.dedent(source), path="fixture.py",
                       rule_ids=rule_ids)


def active_ids(report: Report):
    return [d.rule_id for d in report.active]


def suppressed_ids(report: Report):
    return [d.rule_id for d in report.diagnostics if d.suppressed]


class TestLint001FloatEquality:
    def test_float_literal_comparison(self):
        report = lint("if rate == 1.5:\n    pass\n")
        assert active_ids(report) == ["LINT001"]
        assert "math.isclose" in report.errors[0].message

    def test_unit_suffixed_name_comparison(self):
        report = lint("ok = link_gbps != tor_gbps\n")
        assert active_ids(report) == ["LINT001"]

    def test_attribute_access(self):
        report = lint("ok = port.gbps == other.gbps\n")
        assert active_ids(report) == ["LINT001"]

    def test_int_comparison_is_fine(self):
        report = lint("if hops == 3:\n    pass\n")
        assert report.ok and not report.diagnostics

    def test_inequality_operators_are_fine(self):
        report = lint("if latency_s < 1.5:\n    pass\n")
        assert not report.diagnostics

    def test_noqa_suppresses(self):
        report = lint("if rate == 1.5:  # repro: noqa[LINT001]\n    pass\n")
        assert report.ok
        assert suppressed_ids(report) == ["LINT001"]

    def test_line_number_points_at_compare(self):
        report = lint("x = 1\ny = x_gbps == 2.0\n")
        assert report.errors[0].location.line == 2


class TestLint002MutableDefault:
    def test_list_literal_default(self):
        report = lint("def f(xs=[]):\n    return xs\n")
        assert active_ids(report) == ["LINT002"]
        assert "f()" in report.errors[0].message

    def test_dict_call_default(self):
        report = lint("def g(*, opts=dict()):\n    return opts\n")
        assert active_ids(report) == ["LINT002"]

    def test_none_default_is_fine(self):
        report = lint("def f(xs=None, n=0, s=''):\n    return xs\n")
        assert not report.diagnostics

    def test_tuple_default_is_fine(self):
        report = lint("def f(xs=()):\n    return xs\n")
        assert not report.diagnostics

    def test_noqa_suppresses(self):
        report = lint("def f(xs=[]):  # repro: noqa[LINT002]\n    return xs\n")
        assert report.ok
        assert suppressed_ids(report) == ["LINT002"]


class TestLint003UnseededRandom:
    def test_module_level_call(self):
        report = lint("import random\nx = random.randint(0, 5)\n")
        assert active_ids(report) == ["LINT003"]

    def test_bare_random_constructor(self):
        report = lint("import random\nrng = random.Random()\n")
        assert active_ids(report) == ["LINT003"]
        assert "seed" in report.errors[0].message

    def test_seeded_constructor_is_fine(self):
        report = lint("import random\nrng = random.Random(42)\n")
        assert not report.diagnostics

    def test_injected_generator_is_fine(self):
        report = lint(
            """
            def pick(rng, items):
                return rng.choice(items)
            """
        )
        assert not report.diagnostics

    def test_from_import_and_use(self):
        report = lint("from random import choice\nx = choice([1, 2])\n")
        # one finding for the import, one for the bound call
        assert active_ids(report) == ["LINT003", "LINT003"]

    def test_noqa_without_bracket_suppresses_all(self):
        report = lint(
            "import random\nx = random.random()  # repro: noqa\n"
        )
        assert report.ok
        assert suppressed_ids(report) == ["LINT003"]


class TestLint004UnitSuffix:
    def test_bare_quantity_field(self):
        report = lint(
            """
            class LinkSpec:
                bandwidth: float = 400.0
            """
        )
        assert active_ids(report) == ["LINT004"]
        diag = report.warnings[0]
        assert diag.severity is Severity.WARNING
        assert "LinkSpec.bandwidth" in diag.message

    def test_suffixed_fields_are_fine(self):
        report = lint(
            """
            class LinkSpec:
                bandwidth_gbps: float = 400.0
                timeout_s: float = 5.0
                payload_bytes: int = 1500
            """
        )
        assert not report.diagnostics

    def test_non_numeric_annotation_is_fine(self):
        report = lint(
            """
            class T:
                latency: str = "low"
            """
        )
        assert not report.diagnostics

    def test_module_level_names_not_checked(self):
        report = lint("timeout: float = 3.0\n")
        assert not report.diagnostics

    def test_noqa_suppresses(self):
        report = lint(
            """
            class T:
                capacity: float = 1.25  # repro: noqa[LINT004]
            """
        )
        assert report.ok
        assert suppressed_ids(report) == ["LINT004"]


class TestLint005NoPrint:
    def test_bare_print_flagged(self):
        report = lint('print("debug")\n')
        assert active_ids(report) == ["LINT005"]
        assert "repro.obs.get_logger" in report.errors[0].message

    def test_print_inside_function_flagged(self):
        report = lint(
            """
            def solve():
                print("iterating")
            """
        )
        assert active_ids(report) == ["LINT005"]

    def test_logger_call_is_fine(self):
        report = lint(
            """
            from repro.obs import get_logger
            log = get_logger(__name__)
            log.warning("dropped entry")
            """
        )
        assert not report.diagnostics

    def test_method_named_print_is_fine(self):
        report = lint("obj.print()\n")
        assert not report.diagnostics

    def test_cli_module_exempt(self):
        report = lint_source('print("usage: ...")\n', path="src/repro/cli.py",
                             rule_ids=["LINT005"])
        assert not report.diagnostics

    def test_noqa_suppresses(self):
        report = lint('print("bench result")  # repro: noqa[LINT005]\n')
        assert report.ok
        assert suppressed_ids(report) == ["LINT005"]


class TestLint006DirectRouter:
    def test_direct_router_flagged(self):
        report = lint(
            """
            from repro.routing import Router
            router = Router(topo)
            """
        )
        assert active_ids(report) == ["LINT006"]
        assert "shared_router" in report.errors[0].message

    def test_cached_router_flagged(self):
        report = lint(
            """
            from repro.routing import CachedRouter
            router = CachedRouter(topo)
            """
        )
        assert active_ids(report) == ["LINT006"]

    def test_attribute_call_flagged(self):
        report = lint("router = routing.Router(topo)\n")
        assert active_ids(report) == ["LINT006"]

    def test_routing_package_exempt(self):
        report = lint_source(
            "router = Router(topo)\n",
            path="src/repro/routing/verify.py",
            rule_ids=["LINT006"],
        )
        assert not report.diagnostics

    def test_tests_and_benchmarks_exempt(self):
        for path in (
            "tests/test_router.py",
            "benchmarks/test_fig13_port_balance.py",
            "tests/conftest.py",
        ):
            report = lint_source(
                "router = CachedRouter(topo)\n", path=path,
                rule_ids=["LINT006"],
            )
            assert not report.diagnostics, path

    def test_shared_router_is_fine(self):
        report = lint(
            """
            from repro.routing import shared_router
            router = shared_router(topo)
            """
        )
        assert not report.diagnostics

    def test_noqa_suppresses(self):
        report = lint(
            "router = Router(topo)  # repro: noqa[LINT006]\n"
        )
        assert report.ok
        assert suppressed_ids(report) == ["LINT006"]


class TestRunner:
    def test_syntax_error_becomes_lint000(self):
        report = lint("def broken(:\n")
        assert active_ids(report) == ["LINT000"]
        assert not report.ok

    def test_rule_subset(self):
        report = lint("def f(xs=[]):\n    return xs == 1.5\n",
                      rule_ids=["LINT001"])
        assert active_ids(report) == ["LINT001"]

    def test_noqa_for_other_rule_does_not_suppress(self):
        report = lint("if x_gbps == 1.5:  # repro: noqa[LINT002]\n    pass\n")
        assert active_ids(report) == ["LINT001"]

    def test_lint_paths_walks_directories(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import random\nx = random.random()\n")
        (pkg / "good.py").write_text("x = 1\n")
        report = lint_paths([str(pkg)])
        assert report.stats["files_scanned"] == 2
        assert active_ids(report) == ["LINT003"]
        assert report.errors[0].location.file.endswith("bad.py")
        assert report.exit_code() == 1

    def test_repro_tree_is_clean(self):
        """Satellite: the shipped tree passes its own linter."""
        import repro

        root = repro.__path__[0]
        report = lint_paths([root])
        assert [d for d in report.active if d.severity is Severity.ERROR] == []
        assert not report.active, [d.render() for d in report.active]

    def test_duplicate_registration_rejected(self):
        from repro.staticcheck.registry import lint_rule

        with pytest.raises(RuleRegistrationError):
            @lint_rule("LINT001", "dup", Severity.ERROR)
            class Dup:  # noqa -- never registered
                pass

    def test_get_rule(self):
        info = get_rule("LINT003").info
        assert info.kind == "ast"
        assert info.severity is Severity.ERROR
