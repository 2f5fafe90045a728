"""Vector Unit (VU): 1D lanes for pooling, activation, and partial-sum merge.

Per Sec. II-A the VU handles vector operations and merges partial sums when
an operator is tiled across TUs; in vector-only accelerators (EIE-style) it
is the main compute engine.  Each lane carries a MAC-capable ALU plus a
special-function block (piecewise activation / normalization support).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.circuit.dff import DffBank
from repro.circuit.gates import LogicBlock
from repro.circuit.mac import MacModel
from repro.datatypes import INT32, DataType
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import any_point, dynamic_power_w, um2_to_mm2

#: Gates of the per-lane special-function block (LUT + shifter + compare).
DEFAULT_SFU_GATES = 2_500

#: VU ALU energy relative to a full MAC (most vector ops skip the multiply).
MAC_ENERGY_FRACTION = 0.6

#: Switching activity of the special-function block.
SFU_ACTIVITY = 0.15


@dataclass(frozen=True)
class VectorUnitConfig:
    """A 1D vector unit.

    Attributes:
        lanes: Parallel lanes; NeuroMeter auto-matches this to the TU array
            length (Sec. III-A).  Broadcasts: an array of lane counts
            describes one VU per design point.
        dtype: Lane data type — typically the accumulation type, since the
            VU post-processes TU partial sums.
        sfu_gates: Gates in the per-lane special-function block; deep
            activation pipelines (TPU-v1's activation unit) carry an order
            of magnitude more than a lean merge-only VU.
        pipeline_depth: Pipeline registers per lane.
    """

    lanes: int
    dtype: DataType = INT32
    sfu_gates: int = DEFAULT_SFU_GATES
    pipeline_depth: int = 4

    def __post_init__(self) -> None:
        if any_point(self.lanes < 1):
            raise ConfigurationError("vector unit needs at least one lane")
        if self.sfu_gates < 0 or self.pipeline_depth < 1:
            raise ConfigurationError("invalid vector unit sizing")

    @property
    def macs(self) -> int:
        """Equivalent MACs per cycle (one fused op per lane)."""
        return self.lanes


class VectorUnit:
    """Analytical power/area/timing model of one vector unit."""

    def __init__(self, config: VectorUnitConfig):
        self.config = config

    def _lane_mac(self) -> MacModel:
        return MacModel(self.config.dtype, self.config.dtype)

    def _lane_regs(self) -> DffBank:
        bits = self.config.dtype.bits * self.config.pipeline_depth
        return DffBank("vu-lane-regs", bits)

    def lane_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one lane executing one vector element operation."""
        energy = self._lane_mac().energy_per_mac_pj(ctx.tech) * MAC_ENERGY_FRACTION
        energy += self._lane_regs().energy_per_active_cycle_pj(ctx.tech)
        energy += LogicBlock(
            "vu-sfu", self.config.sfu_gates, activity=SFU_ACTIVITY
        ).energy_per_cycle_pj(ctx.tech)
        return energy

    def energy_per_active_cycle_pj(self, ctx: ModelContext) -> float:
        """Whole-VU energy on a fully active cycle."""
        return (
            self.config.lanes
            * self.lane_energy_pj(ctx)
            * calibration.CLOCK_NETWORK_OVERHEAD
        )

    def area_mm2(self, ctx: ModelContext) -> float:
        """Total VU area."""
        tech = ctx.tech
        lane_um2 = self._lane_mac().area_um2(tech)
        lane_um2 += self._lane_regs().bits * tech.dff_area_um2
        lane_um2 += self.config.sfu_gates * tech.gate_area_um2
        return (
            um2_to_mm2(self.config.lanes * lane_um2)
            * calibration.DATAPATH_ROUTING_OVERHEAD
        )

    def cycle_time_ns(self, ctx: ModelContext) -> float:
        """Clock bound of a lane (MAC path dominates the SFU)."""
        return self._lane_mac().delay_ns(ctx.tech) + self._lane_regs(
        ).setup_plus_clk_to_q_ns(ctx.tech)

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full VU estimate."""
        tech = ctx.tech
        lanes = self.config.lanes
        leak = lanes * (
            self._lane_mac().leakage_w(tech)
            + self._lane_regs().leakage_w(tech)
            + LogicBlock("vu-sfu", self.config.sfu_gates).leakage_w(tech)
        )
        return Estimate(
            name="vector unit",
            area_mm2=self.area_mm2(ctx),
            dynamic_w=dynamic_power_w(
                self.energy_per_active_cycle_pj(ctx), ctx.freq_ghz
            )
            * calibration.TDP_ACTIVITY["compute"],
            leakage_w=leak,
            cycle_time_ns=self.cycle_time_ns(ctx),
        )
