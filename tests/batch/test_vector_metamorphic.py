"""Metamorphic physical properties of the vector path.

Adding a tensor unit to every core adds silicon: the chip area and its
leakage cannot shrink, and the peak throughput must grow.  A longer TU
must also raise the peak throughput.  Hypothesis draws a TU length and a
core grid from the expanded space; one ``estimate_grid`` call evaluates
N = 1...8 at that TU length and at the next longer one.

These four asserts hold at every one of the 1,040,384 expanded points in
each context below, all of them feasible.  Area is deliberately *not*
asserted monotone in X or in T_y, nor TDP in N: a full scan at 28 nm /
0.7 GHz finds 26 adjacent X pairs and 1,959 adjacent T_y pairs where the
area falls, and 200 steps in N where the TDP falls.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.component import ModelContext
from repro.batch.kernels import estimate_grid
from repro.batch.substrate import substrate_for
from repro.dse.space import SpaceAxes
from repro.tech.node import node

_EXPANDED = SpaceAxes.expanded()
_X = _EXPANDED.x_values
_N = np.array(_EXPANDED.n_values, dtype=float)

#: (family, node nm, clock GHz) contexts the properties are checked at.
CONTEXTS = (
    ("datacenter", 28, 0.7),
    ("datacenter", 20, 3.0),
    ("training", 16, 0.7),
)


@pytest.mark.parametrize("family, feature_nm, freq_ghz", CONTEXTS)
@settings(max_examples=25, deadline=None)
@given(
    x_index=st.integers(min_value=0, max_value=len(_X) - 2),
    grid=st.sampled_from(_EXPANDED.grid_pairs),
)
def test_more_units_never_shrink_the_chip(
    family, feature_nm, freq_ghz, x_index, grid
):
    sub = substrate_for(
        ModelContext(tech=node(feature_nm), freq_ghz=freq_ghz), family
    )
    x_pair = np.array(_X[x_index : x_index + 2], dtype=float)
    shape = (len(x_pair), len(_N))
    x = np.repeat(x_pair, len(_N))
    n = np.tile(_N, len(x_pair))
    tx = np.full(x.shape, float(grid[0]))
    ty = np.full(x.shape, float(grid[1]))
    out = estimate_grid(sub, x, n, tx, ty)
    assert out["feasible"].all()

    area = out["area_mm2"].reshape(shape)
    leakage = out["leakage_w"].reshape(shape)
    peak = out["peak_tops"].reshape(shape)
    # Along N (axis 1): non-decreasing area and leakage, rising peak.
    assert np.all(np.diff(area, axis=1) >= 0), area
    assert np.all(np.diff(leakage, axis=1) >= 0), leakage
    assert np.all(np.diff(peak, axis=1) > 0), peak
    # Along X (axis 0): the longer TU has the higher peak at every N.
    assert np.all(peak[1] > peak[0]), peak
