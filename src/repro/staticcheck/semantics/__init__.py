"""Project-wide semantic analysis: index, call graph, SEM rules.

The per-file LINT rules see one AST at a time; the SEM family sees the
whole package -- module/symbol tables, the import graph, a conservative
call graph, and attribute-assignment dataflow -- so it can check the
cross-module contracts the incremental hot paths (PRs 4-5) rely on:
epoch discipline, engine determinism, cache coherence, layering.

The gate runs this family as ``repro check --family SEM``
(:func:`repro.staticcheck.run_check`). In-process, index the tree once
and run the rules over it::

    from repro.staticcheck.semantics import (
        build_project_index, run_semantic_rules)
    report = run_semantic_rules(build_project_index(["src/repro"]))
"""

from __future__ import annotations

from .baseline import DEFAULT_BASELINE, Baseline, fingerprint, normalize_path
from .callgraph import CallGraph, experiment_entry_points
from .index import BACKEND_MARKER, ProjectIndex, build_project_index
from .rules import SemContext, run_semantic_rules

__all__ = [
    "BACKEND_MARKER",
    "Baseline",
    "CallGraph",
    "DEFAULT_BASELINE",
    "ProjectIndex",
    "SemContext",
    "build_project_index",
    "experiment_entry_points",
    "fingerprint",
    "normalize_path",
    "run_semantic_rules",
]
