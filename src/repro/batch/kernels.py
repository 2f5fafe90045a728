"""The chip rollup over whole design grids.

:func:`estimate_grid` evaluates ``Chip.estimate`` and the headline metrics
for *vectors* of design-point parameters ``(X, N, T_x, T_y)`` of one
preset family.  No model arithmetic lives here: the substrate builds one
chip whose point-dependent fields are arrays
(:meth:`~repro.batch.substrate.TechSubstrate.chip`), and the architecture
models — tensor unit, vector unit, VReg, load/store unit, on-chip memory
with its organization search, central data bus, NoC, core and chip
rollups — broadcast over them under
:func:`~repro.arch.component.array_evaluation`.  Both backends therefore
run the same closed forms in the same order; ``tests/batch/`` pins exact
scalar/vector agreement.

All arrays are float64; integer inputs stay exact well below 2**53.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.arch.component import array_evaluation
from repro.batch.substrate import TechSubstrate


def estimate_grid(sub: TechSubstrate, x, n, tx, ty) -> Dict[str, np.ndarray]:
    """Chip-level rollup (`Chip.estimate` + headline metrics) for a grid.

    Returns float64 arrays: ``area_mm2`` (with whitespace), ``dynamic_w``,
    ``leakage_w``, ``tdp_w``, ``peak_tops``, ``timing_ns`` (the composed
    cycle-time bound), and a boolean ``feasible`` mask (False where the
    scalar path would raise ``OptimizationError`` in the Mem search).
    Additional per-point quantities consumed by the batched performance
    layer ride along: the core area, the VU lane count, and the on-chip
    memory's derived configuration and per-access physics (``mem_*``).
    """
    ctx = sub.ctx
    chip = sub.chip(x, n, tx, ty)
    shape = np.broadcast(x, n, tx, ty).shape
    with array_evaluation():
        estimate = chip.estimate(ctx)
        memory = chip.core.memory(ctx)
        mem = memory.config
        fields = {
            "area_mm2": estimate.area_mm2,
            "dynamic_w": estimate.dynamic_w,
            "leakage_w": estimate.leakage_w,
            "tdp_w": chip.tdp_w(ctx),
            "peak_tops": chip.peak_tops(ctx),
            "timing_ns": estimate.cycle_time_ns,
            "core_area_mm2": chip.core.estimate(ctx).area_mm2,
            "lanes": chip.core.vector_unit.config.lanes,
            "mem_capacity_bytes": mem.capacity_bytes,
            "mem_block_bytes": mem.block_bytes,
            "mem_read_bw_target_gbps": mem.read_bandwidth_gbps,
            "mem_write_bw_target_gbps": mem.write_bandwidth_gbps,
            "mem_latency_bound_ns": mem.latency_cycles * ctx.cycle_ns,
            "mem_read_energy_pj": memory.read_energy_pj(ctx),
            "mem_write_energy_pj": memory.write_energy_pj(ctx),
            "mem_peak_read_gbps": memory.peak_read_bandwidth_gbps(ctx),
            "mem_peak_write_gbps": memory.peak_write_bandwidth_gbps(ctx),
        }
        feasible = memory.feasible(ctx)
    grid = {
        name: np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
        for name, value in fields.items()
    }
    grid["feasible"] = np.broadcast_to(feasible, shape)
    return grid
