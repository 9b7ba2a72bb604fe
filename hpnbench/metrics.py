"""Helpers shared by the run and its workers.

The metric names, units and directions live in ``BENCHMARK.json`` at
the repository root; ``run.py`` reads them from there.
"""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0 without values."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
