"""Vectorized batch-estimation backend for the DSE hot path.

The scalar model stack evaluates one :class:`~repro.dse.space.DesignPoint`
at a time by walking a tree of component objects.  For the Table I sweep
that walk is pure overhead: every point shares one technology substrate and
differs only in four integers ``(X, N, T_x, T_y)``.  This package evaluates
an entire grid of points as NumPy array operations:

* :mod:`repro.batch.substrate` hoists everything that does not depend on
  the design point — per-MAC scalars, wire parameters, and full estimates
  of the point-independent blocks — into a :class:`TechSubstrate`;
* :mod:`repro.batch.kernels` evaluates the component rollups (MAC array,
  VU, VReg, Mem, CDB, NoC) over the grid, calling the shared circuit
  closed forms (SRAM organizer, register file, DFF/logic blocks, wires)
  with arrays, and returns vectors of ``(area_mm2, power_w, timing_ns)``;
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
