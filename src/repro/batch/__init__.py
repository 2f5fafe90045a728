"""Vectorized batch-estimation backend for the DSE hot path.

The scalar model stack evaluates one :class:`~repro.dse.space.DesignPoint`
at a time by walking a tree of component objects.  For the Table I sweep
that walk is pure overhead: every point shares one technology substrate and
differs only in four integers ``(X, N, T_x, T_y)``.  This package evaluates
an entire grid of points as NumPy array operations:

* :mod:`repro.batch.substrate` holds each preset family's template chip
  in a :class:`TechSubstrate` and builds from it one chip whose
  point-dependent fields (TU length and count, core grid, and the VU and
  Mem sizes they scale) are arrays;
* :mod:`repro.batch.kernels` evaluates that chip's own ``estimate``
  rollup — the architecture models broadcast over the arrays — and
  returns vectors of ``(area_mm2, power_w, timing_ns)``;
* :mod:`repro.batch.estimator` canonicalizes a sweep into swept axes plus
  shared context, runs the kernels, screens the batched arrays through the
  integrity contracts, and materializes per-point
  :class:`~repro.dse.journal.SummaryResult` rows.

Exact equivalence with the scalar walk is enforced by ``tests/batch/``
over the full Table I grids and, by a differential property, over the
expanded space at other nodes and clocks.
"""

from repro.batch.estimator import (
    BatchEstimator,
    BatchResult,
    GridAxes,
    supports_vector_path,
)
from repro.batch.substrate import TechSubstrate

__all__ = [
    "BatchEstimator",
    "BatchResult",
    "GridAxes",
    "TechSubstrate",
    "supports_vector_path",
]
