"""Property-based scalar/vector equivalence.

Hypothesis draws arbitrary subsets (with duplicates and shuffled order)
of valid Table I design points and asserts the vector backend reproduces
the scalar backend bit for bit, point for point, in input order.  A
differential property then widens the draw to the expanded design space
at arbitrary technology nodes and clocks, for both kernel families.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.component import ModelContext
from repro.batch import BatchEstimator
from repro.batch.estimator import SRAM_INFEASIBLE
from repro.batch.kernels import estimate_grid
from repro.batch.substrate import substrate_for
from repro.config.presets import datacenter_context
from repro.dse.space import (
    TU_LENGTHS,
    TUS_PER_CORE,
    DesignPoint,
    SpaceAxes,
    _grids,
)
from repro.dse.sweep import evaluate_point
from repro.errors import OptimizationError
from repro.tech.node import node

_GRID = [
    DesignPoint(x, n, tx, ty)
    for x in TU_LENGTHS
    for n in TUS_PER_CORE
    for (tx, ty) in _grids()
]

_CTX = datacenter_context()

#: Scalar references computed lazily once per point across examples.
_SCALAR_CACHE: dict = {}


def _scalar(point: DesignPoint):
    if point not in _SCALAR_CACHE:
        try:
            _SCALAR_CACHE[point] = evaluate_point(
                point, (), (), _CTX, latency_slo_ms=None
            )
        except OptimizationError:
            _SCALAR_CACHE[point] = None
    return _SCALAR_CACHE[point]


from repro.config.presets import datacenter_training_point
from repro.workloads import mobilenet_v2


class _TrainingPoint(DesignPoint):
    def build(self):
        return datacenter_training_point(self.x, self.n, self.tx, self.ty)


_MIXED_GRID = _GRID + [
    _TrainingPoint(p.x, p.n, p.tx, p.ty) for p in _GRID
]

_WORKLOADS = [("MobileNet", mobilenet_v2())]

#: Scalar workload-sim references, keyed by (type, coords) because the
#: journal/base-class equality rules make subclasses compare unequal.
_SIM_CACHE: dict = {}


def _scalar_sim(point: DesignPoint):
    key = (type(point).__name__, point.x, point.n, point.tx, point.ty)
    if key not in _SIM_CACHE:
        try:
            _SIM_CACHE[key] = evaluate_point(point, _WORKLOADS, [1], _CTX)
        except OptimizationError:
            _SIM_CACHE[key] = None
    return _SIM_CACHE[key]


@settings(max_examples=20, deadline=None)
@given(
    points=st.lists(
        st.sampled_from(_GRID), min_size=1, max_size=8
    )
)
def test_random_subsets_match_scalar(points):
    batch = BatchEstimator(_CTX).estimate_points(points)
    assert len(batch.summaries) == len(points)
    for point, summary in zip(points, batch.summaries):
        reference = _scalar(point)
        if reference is None:
            assert summary is None  # infeasible in both paths
            continue
        assert summary is not None
        for name in ("area_mm2", "tdp_w", "peak_tops"):
            assert getattr(summary, name) == getattr(reference, name), (
                point,
                name,
            )


@settings(max_examples=10, deadline=None)
@given(
    points=st.lists(
        st.sampled_from(_MIXED_GRID), min_size=1, max_size=5
    )
)
def test_random_mixed_family_subsets_simulate_identically(points):
    """Mixed datacenter/training subsets with a workload stay bit-exact."""
    batch = BatchEstimator(_CTX).estimate_points(
        points, workloads=_WORKLOADS, batches=(1,)
    )
    assert len(batch.summaries) == len(points)
    assert batch.fallback_reasons == {}
    for point, summary in zip(points, batch.summaries):
        reference = _scalar_sim(point)
        if reference is None:
            assert summary is None
            continue
        assert summary is not None
        assert summary.area_mm2 == reference.area_mm2
        assert summary.tdp_w == reference.tdp_w
        assert summary.peak_tops == reference.peak_tops
        for got, want in zip(summary.outcomes, reference.outcomes):
            assert got.workload == want.workload
            assert got.batch == want.batch
            assert got.regime == want.regime
            assert got.achieved_tops == want.achieved_tops
            assert got.utilization == want.utilization
            assert got.runtime_power_w == want.runtime_power_w
            assert got.latency_ms == want.result.latency_ms


_EXPANDED = SpaceAxes.expanded()

#: Tabulated nodes plus 20 nm, which the node table interpolates.
_NODES_NM = (65, 45, 28, 20, 16, 7)


@settings(max_examples=12, deadline=None)
@given(
    x=st.sampled_from(_EXPANDED.x_values),
    n=st.sampled_from(_EXPANDED.n_values),
    grid=st.sampled_from(_EXPANDED.grid_pairs),
    feature_nm=st.sampled_from(_NODES_NM),
    freq_ghz=st.floats(min_value=0.3, max_value=3.0),
    training=st.booleans(),
)
@example(x=92, n=2, grid=(27, 9), feature_nm=20, freq_ghz=3.0, training=False)
def test_scalar_and_vector_agree_across_nodes_and_clocks(
    x, n, grid, feature_nm, freq_ghz, training
):
    """Both backends run the same closed forms, so they agree exactly.

    The explicit example is a point where the two paths once disagreed
    in the last bit of the VReg power (a different association order in
    a transcribed register-file expression).
    """
    ctx = ModelContext(tech=node(feature_nm), freq_ghz=freq_ghz)
    point = (_TrainingPoint if training else DesignPoint)(x, n, *grid)
    try:
        reference = evaluate_point(point, _WORKLOADS, [1], ctx)
    except OptimizationError:
        reference = None
    batch = BatchEstimator(ctx, use_cache=False).estimate_points(
        [point], workloads=_WORKLOADS, batches=(1,)
    )
    (summary,) = batch.summaries
    if reference is None:
        assert batch.fallback_reasons == {0: SRAM_INFEASIBLE}
        return
    assert batch.fallback_reasons == {}
    assert summary.area_mm2 == reference.area_mm2
    assert summary.tdp_w == reference.tdp_w
    assert summary.peak_tops == reference.peak_tops
    (got,), (want,) = summary.outcomes, reference.outcomes
    assert got.regime == want.regime and got.batch == want.batch
    assert got.achieved_tops == want.achieved_tops
    assert got.utilization == want.utilization
    assert got.runtime_power_w == want.runtime_power_w
    assert got.latency_ms == want.result.latency_ms

    family = "training" if training else "datacenter"
    axes = [np.array([value], dtype=float) for value in (x, n, *grid)]
    timing = estimate_grid(substrate_for(ctx, family), *axes)["timing_ns"]
    assert timing[0] == reference.estimate.cycle_time_ns
