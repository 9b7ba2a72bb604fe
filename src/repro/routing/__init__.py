"""Routing: hash family, FIB + cached router, RePaC, complexity.

``Router`` is the uncached oracle walker (:mod:`repro.routing.ecmp`),
re-exported for tests and benchmarks; production code routes through
``CachedRouter`` via :func:`shared_router`.
"""

from .cache import (
    CachedRouter,
    RouteCache,
    RouteStats,
    reset_shared_router,
    shared_router,
)
from .complexity import (
    ComplexityRow,
    card_complexity,
    failure_recalc_scope,
    measured_complexity,
    table1,
)
from .ecmp import Router
from .fib import AccessLeg, Fib, SwitchFib
from .hashing import (
    FiveTuple,
    ecmp_index,
    ecmp_select,
    hash_five_tuple,
    polarization_coefficient,
)
from .path import FlowPath, decode_dirlink, disjoint, encode_dirlink, mutually_disjoint
from .repac import DisjointPathSet, PathProbe, find_paths, max_disjoint_paths
from .verify import ForwardingReport, ForwardingViolation, verify_forwarding

__all__ = [
    "ForwardingReport",
    "ForwardingViolation",
    "verify_forwarding",
    "AccessLeg",
    "CachedRouter",
    "ComplexityRow",
    "DisjointPathSet",
    "Fib",
    "FiveTuple",
    "FlowPath",
    "PathProbe",
    "RouteCache",
    "RouteStats",
    "Router",
    "SwitchFib",
    "reset_shared_router",
    "shared_router",
    "card_complexity",
    "decode_dirlink",
    "disjoint",
    "ecmp_index",
    "ecmp_select",
    "encode_dirlink",
    "failure_recalc_scope",
    "find_paths",
    "hash_five_tuple",
    "max_disjoint_paths",
    "measured_complexity",
    "mutually_disjoint",
    "polarization_coefficient",
    "table1",
]
