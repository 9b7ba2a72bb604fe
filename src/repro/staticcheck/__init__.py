"""Unified static-analysis layer.

Three analyzer families behind one registry and one diagnostic model:

* **topology/config rules** (``TOPO*``/``WIRE*``/``FWD*``) -- collecting
  invariant checks over a :class:`~repro.core.topology.Topology`, built
  in-process or loaded from JSON;
* **codebase lint rules** (``LINT*``) -- per-file AST hygiene checks
  over the simulator's own sources;
* **semantic rules** (``SEM*``) -- project-wide contracts (epoch
  discipline, engine determinism, cache coherence, layering) over the
  whole-tree :class:`~repro.staticcheck.semantics.ProjectIndex`.

The one entry point is :func:`run_check`, behind the ``repro check``
CLI: it runs the requested families into one report. Its building
blocks stay public for callers that hold one family's input:
:func:`run_topology_rules` (a live topology), :func:`lint_paths`
(files) and :func:`repro.staticcheck.semantics.run_semantic_rules`
(a project index). See ``docs/static_analysis.md`` for the rule
catalogue and suppression syntax.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .semantics import Baseline

from ..core.topology import Topology
from .ast_rules import LintRule, lint_paths, lint_source
from .diagnostics import (
    Diagnostic,
    Location,
    Report,
    Severity,
    render_report,
    to_sarif,
)
from .registry import (
    AST_RULES,
    FAMILIES,
    SEMANTIC_RULES,
    TOPOLOGY_RULES,
    RuleInfo,
    RuleRegistrationError,
    all_rules,
    family_of,
    get_rule,
    lint_rule,
    semantic_rule,
    topology_rule,
)
from .topo_rules import TopoContext, resolve_spec, run_topology_rules


#: the topology-bound families within the unified gate
_TOPOLOGY_FAMILIES = frozenset({"TOPO", "WIRE", "FWD"})


def run_check(
    families: Optional[Sequence[str]] = None,
    paths: Optional[Sequence[str]] = None,
    topo: Optional[Topology] = None,
    forwarding_kwargs: Optional[Dict[str, object]] = None,
    baseline: Optional["Baseline"] = None,
) -> Report:
    """The unified gate: run every requested rule family into one report.

    * ``TOPO``/``WIRE``/``FWD`` run when ``topo`` is given (the
      expensive wiring/forwarding walks only when their family is
      requested);
    * ``LINT`` lints ``paths`` per file;
    * ``SEM`` indexes the project tree under ``paths[0]`` once and runs
      the project-wide semantic rules.

    A :class:`~repro.staticcheck.semantics.Baseline` (when given) is
    applied to the merged report, so grandfathered findings of any
    family stop gating while staying visible as suppressed.
    """
    wanted: Set[str] = set(families) if families else set(FAMILIES)
    unknown = wanted - set(FAMILIES)
    if unknown:
        raise ValueError(
            f"unknown rule families: {sorted(unknown)} "
            f"(known: {sorted(FAMILIES)})"
        )
    if not paths:
        import repro as _repro

        paths = [_repro.__path__[0]]
    report = Report()
    if wanted & _TOPOLOGY_FAMILIES and topo is not None:
        topo_report = run_topology_rules(
            topo,
            include_expensive=bool(wanted & {"WIRE", "FWD"}),
            forwarding_kwargs=forwarding_kwargs,
        )
        topo_report.diagnostics = [
            d for d in topo_report.diagnostics
            if family_of(d.rule_id) in wanted
        ]
        report.merge(topo_report)
    if "LINT" in wanted:
        report.merge(lint_paths(paths))
    if "SEM" in wanted:
        from . import semantics

        index = semantics.build_project_index(paths)
        semantics.run_semantic_rules(index, report=report)
    if baseline is not None:
        baseline.apply(report)
    return report


__all__ = [
    "AST_RULES",
    "FAMILIES",
    "SEMANTIC_RULES",
    "TOPOLOGY_RULES",
    "Diagnostic",
    "LintRule",
    "Location",
    "Report",
    "RuleInfo",
    "RuleRegistrationError",
    "Severity",
    "TopoContext",
    "all_rules",
    "family_of",
    "get_rule",
    "lint_paths",
    "lint_rule",
    "lint_source",
    "render_report",
    "resolve_spec",
    "run_check",
    "run_topology_rules",
    "semantic_rule",
    "to_sarif",
    "topology_rule",
]
