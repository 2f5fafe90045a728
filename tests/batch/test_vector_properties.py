"""Property-based scalar/vector equivalence.

Hypothesis draws arbitrary subsets (with duplicates and shuffled order)
of valid Table I design points and asserts the vector backend reproduces
the scalar backend bit for bit, point for point, in input order.  A
differential property then widens the draw to the expanded design space
at arbitrary technology nodes and clocks, for both preset families, with
single-core, ring and mesh points in one batch and two workload graphs
at a fixed batch and in the latency-bound regime.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.arch.component import ModelContext
from repro.batch import BatchEstimator
from repro.batch.estimator import SCREEN_FAILED, SRAM_INFEASIBLE
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
from repro.errors import NumericalError, OptimizationError
from repro.integrity import validate_result
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
from repro.workloads import mobilenet_v2, resnet50


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

#: Core grids by the NoC branch they take: none, a ring, a 2D mesh.
_SINGLE = [(1, 1)]
_RING = [(tx, ty) for tx, ty in _EXPANDED.grid_pairs if 1 < tx * ty <= 4]
_MESH = [(tx, ty) for tx, ty in _EXPANDED.grid_pairs if tx * ty > 4]

_DIFF_WORKLOADS = [("MobileNet", mobilenet_v2()), ("ResNet", resnet50())]
_DIFF_BATCHES = [1, "latency-bound"]


def _axis_point(grids):
    return st.tuples(
        st.sampled_from(_EXPANDED.x_values),
        st.sampled_from(_EXPANDED.n_values),
        st.sampled_from(grids),
    )


#: One point per NoC branch plus up to two more anywhere, shuffled, so a
#: single vectorized call picks the branch per point.
_MIXED_POINTS = st.tuples(
    _axis_point(_SINGLE),
    _axis_point(_RING),
    _axis_point(_MESH),
    st.lists(_axis_point(_EXPANDED.grid_pairs), max_size=2),
).flatmap(lambda drawn: st.permutations([*drawn[:3], *drawn[3]]))


@settings(max_examples=8, deadline=None)
@given(
    points=_MIXED_POINTS,
    feature_nm=st.sampled_from(_NODES_NM),
    freq_ghz=st.floats(min_value=0.3, max_value=3.0),
    training=st.booleans(),
)
@example(
    points=[(92, 2, (27, 9)), (16, 1, (1, 1)), (64, 4, (2, 2))],
    feature_nm=20,
    freq_ghz=3.0,
    training=False,
)
@example(
    points=[(4, 1, (1, 1)), (4, 1, (1, 2)), (4, 1, (1, 5))],
    feature_nm=65,
    freq_ghz=2.0,
    training=True,
)
def test_scalar_and_vector_agree_across_nodes_and_clocks(
    points, feature_nm, freq_ghz, training
):
    """Both backends run the same closed forms, so they agree exactly.

    Each example mixes single-core, ring and mesh points in one batch and
    simulates two graphs at batch 1 and in the latency-bound regime.  The
    first explicit example holds a point where the two paths once disagreed in
    the last bit of the VReg power (a different association order in a
    transcribed register-file expression).  The second holds points whose
    latency-bound MobileNet utilization comes out just above one on both
    paths: the vector screen must drop exactly the points the scalar
    result's own validation rejects.
    """
    ctx = ModelContext(tech=node(feature_nm), freq_ghz=freq_ghz)
    kind = _TrainingPoint if training else DesignPoint
    design = [kind(x, n, *grid) for x, n, grid in points]
    batch = BatchEstimator(ctx, use_cache=False).estimate_points(
        design, workloads=_DIFF_WORKLOADS, batches=_DIFF_BATCHES
    )
    references = []
    for index, (point, summary) in enumerate(zip(design, batch.summaries)):
        try:
            reference = evaluate_point(
                point, _DIFF_WORKLOADS, _DIFF_BATCHES, ctx
            )
        except OptimizationError:
            assert batch.fallback_reasons.get(index) == SRAM_INFEASIBLE
            references.append(None)
            continue
        references.append(reference)
        try:
            validate_result(reference)
        except NumericalError:
            assert batch.fallback_reasons.get(index) == SCREEN_FAILED, point
            continue
        assert index not in batch.fallback_reasons, point
        assert summary.area_mm2 == reference.area_mm2, point
        assert summary.tdp_w == reference.tdp_w, point
        assert summary.peak_tops == reference.peak_tops, point
        assert len(summary.outcomes) == len(reference.outcomes), point
        for got, want in zip(summary.outcomes, reference.outcomes):
            assert got.workload == want.workload, point
            assert got.regime == want.regime, point
            assert got.batch == want.batch, point
            assert got.achieved_tops == want.achieved_tops, point
            assert got.utilization == want.utilization, point
            assert got.runtime_power_w == want.runtime_power_w, point
            assert got.latency_ms == want.result.latency_ms, point

    family = "training" if training else "datacenter"
    axes = [
        np.array(column, dtype=float)
        for column in zip(*[(x, n, *grid) for x, n, grid in points])
    ]
    timing = estimate_grid(substrate_for(ctx, family), *axes)["timing_ns"]
    for value, reference in zip(timing, references):
        if reference is not None:
            assert value == reference.estimate.cycle_time_ns
