"""Bit-exact pins of the scalar model's outputs.

``test_regression_snapshots`` checks a handful of numbers at ``rel=2e-3``,
which cannot see a one-ULP drift.  These tests hash the ``repr`` of every
float in the full estimate trees of four reference sets, so any refactor
of a closed form that changes a single bit anywhere fails here:

* the 210-point Table I grid at 28 nm / 0.7 GHz (datacenter family),
* the same grid built as the bf16 training family at 16 nm / 0.7 GHz,
* TPU-v1, TPU-v2 and Eyeriss at their own contexts (their memories use
  ``min_banks`` 2, 4 and 27, the override path of the SRAM organizer),
* one eDRAM on-chip memory (no preset uses eDRAM, but ``EdramArray``
  runs on the shared SRAM organization physics).

An intentional model change must update the digests deliberately.
"""

from __future__ import annotations

import hashlib

from repro.arch.component import Estimate, ModelContext
from repro.arch.memory import MemCellKind, OnChipMemory, OnChipMemoryConfig
from repro.circuit.edram import EdramArray
from repro.config.presets import (
    datacenter_context,
    datacenter_training_point,
    eyeriss,
    eyeriss_context,
    tpu_v1,
    tpu_v1_context,
    tpu_v2,
    tpu_v2_context,
    training_context,
)
from repro.dse.space import DesignPoint, full_grid
from repro.dse.sweep import evaluate_point
from repro.errors import OptimizationError
from repro.tech.node import node
from repro.units import MiB

#: sha256 digests of the estimate trees, recorded before the SRAM organizer,
#: register file and wire closed forms were made array-polymorphic.
DIGESTS = {
    "table1": "4e2b187bbc6b099e92bfd011de3552b03ca2c0ce82a3643b2d5cf9a098ac26cc",
    "training": "18ffd7f30eab30c6ec7757b66a9222477ee99bc9b0a0b92cc7fa4d9d6b3ab89f",
    "presets": "f79addc848509e29a03483508a64b36aeb56d8f21256e282c7facbec57d7f324",
    "edram": "628b5d45a938182354430c7dd4d456a299f2b746969054bb0419490048d32b30",
}


def _tree_lines(estimate: Estimate, path: str = "") -> list[str]:
    here = f"{path}/{estimate.name}"
    lines = [
        f"{here} {estimate.area_mm2!r} {estimate.dynamic_w!r} "
        f"{estimate.leakage_w!r} {estimate.cycle_time_ns!r}"
    ]
    for child in estimate.children:
        lines.extend(_tree_lines(child, here))
    return lines


def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _grid_lines(points, ctx: ModelContext) -> list[str]:
    lines = []
    for point in points:
        label = f"{point.x},{point.n},{point.tx},{point.ty}"
        try:
            result = evaluate_point(point, (), (), ctx, latency_slo_ms=None)
        except OptimizationError as error:
            lines.append(f"{label} infeasible {error}")
            continue
        lines.append(f"{label} {result.tdp_w!r} {result.peak_tops!r}")
        lines.extend(_tree_lines(result.estimate, label))
    return lines


class _TrainingPoint(DesignPoint):
    def build(self):
        return datacenter_training_point(self.x, self.n, self.tx, self.ty)


def test_table1_grid_is_bit_exact():
    lines = _grid_lines(full_grid(), datacenter_context())
    assert _digest(lines) == DIGESTS["table1"]


def test_training_grid_is_bit_exact():
    points = [_TrainingPoint(p.x, p.n, p.tx, p.ty) for p in full_grid()]
    lines = _grid_lines(points, training_context())
    assert _digest(lines) == DIGESTS["training"]


def test_published_chips_are_bit_exact():
    lines = []
    for name, builder, context in (
        ("tpu_v1", tpu_v1, tpu_v1_context),
        ("tpu_v2", tpu_v2, tpu_v2_context),
        ("eyeriss", eyeriss, eyeriss_context),
    ):
        chip, ctx = builder(), context()
        lines.append(f"{name} {chip.tdp_w(ctx)!r}")
        lines.extend(_tree_lines(chip.estimate(ctx), name))
    assert _digest(lines) == DIGESTS["presets"]


def test_edram_memory_is_bit_exact():
    ctx = ModelContext(tech=node(28), freq_ghz=0.7)
    memory = OnChipMemory(
        OnChipMemoryConfig(
            capacity_bytes=2 * MiB,
            block_bytes=128,
            cell=MemCellKind.EDRAM,
            read_bandwidth_gbps=256.0,
            write_bandwidth_gbps=128.0,
        )
    )
    array = EdramArray(memory.organization(ctx))
    lines = _tree_lines(memory.estimate(ctx), "edram")
    lines.append(
        " ".join(
            repr(value)
            for value in (
                array.read_energy_pj(ctx.tech),
                array.write_energy_pj(ctx.tech),
                array.access_latency_ns(ctx.tech),
                array.random_cycle_ns(ctx.tech),
                array.leakage_w(ctx.tech),
                memory.peak_read_bandwidth_gbps(ctx),
                memory.peak_write_bandwidth_gbps(ctx),
            )
        )
    )
    assert _digest(lines) == DIGESTS["edram"]
