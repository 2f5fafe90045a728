"""Central Data Bus (CDB): the intra-core interconnect.

Per Sec. II-A the CDB connects the VReg with the TU(s), VU, and Mem.  Wires
route around the functional components, so their length is estimated as the
square root of the connected components' area; when the repeated-wire delay
exceeds the cycle time, the bus is pipelined to preserve throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.circuit.dff import DffBank
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.wire import (
    WireType,
    repeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
    wire_pipeline_stages,
)
from repro.units import any_point, as_plain, dynamic_power_w, um_to_mm


@dataclass(frozen=True)
class CentralDataBus:
    """The core-internal bus between VReg and the functional units.

    Attributes:
        width_bits: Bus width (one vector of accumulation-width elements in
            each direction by default).
        connected_area_mm2: Total area of the components the bus routes
            around; the wire length is its square root.
        endpoints: Functional units hanging off the bus.

    Every field broadcasts: arrays describe one bus per design point.
    """

    width_bits: int
    connected_area_mm2: float
    endpoints: int = 3

    def __post_init__(self) -> None:
        if any_point(self.width_bits < 1):
            raise ConfigurationError("CDB width must be positive")
        if any_point(self.connected_area_mm2 < 0):
            raise ConfigurationError("connected area must be >= 0")
        if any_point(self.endpoints < 2):
            raise ConfigurationError("CDB needs at least two endpoints")

    @property
    def length_mm(self) -> float:
        """Routed bus length (the paper's sqrt-of-area estimate)."""
        return as_plain(np.sqrt(self.connected_area_mm2))

    def pipeline_stages(self, ctx: ModelContext) -> int:
        """Registers inserted to meet the clock (>= 1)."""
        wire = wire_params(ctx.tech, WireType.INTERMEDIATE)
        return wire_pipeline_stages(
            ctx.tech, wire, self.length_mm, ctx.cycle_ns
        )

    def transfer_energy_pj(self, ctx: ModelContext) -> float:
        """Energy to move one full bus word end to end."""
        wire = wire_params(ctx.tech, WireType.INTERMEDIATE)
        wire_energy = self.width_bits * wire_energy_pj_per_bit(
            ctx.tech, wire, self.length_mm
        )
        pipes = DffBank(
            "cdb-pipe", self.width_bits * self.pipeline_stages(ctx)
        )
        return wire_energy + pipes.energy_per_active_cycle_pj(ctx.tech)

    def latency_ns(self, ctx: ModelContext) -> float:
        """End-to-end propagation delay of the repeated bus."""
        wire = wire_params(ctx.tech, WireType.INTERMEDIATE)
        return repeated_wire_delay_ns(ctx.tech, wire, self.length_mm)

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Wire tracks plus pipeline registers."""
        tech = ctx.tech
        wire = wire_params(tech, WireType.INTERMEDIATE)
        track_area = um_to_mm(self.width_bits * wire.pitch_um) * self.length_mm
        pipes = DffBank(
            "cdb-pipe", self.width_bits * self.pipeline_stages(ctx)
        )
        energy = self.transfer_energy_pj(ctx) * (
            calibration.CLOCK_NETWORK_OVERHEAD
        )
        return Estimate(
            name="central data bus",
            area_mm2=track_area + pipes.area_mm2(tech),
            dynamic_w=dynamic_power_w(energy, ctx.freq_ghz)
            * calibration.TDP_ACTIVITY["interconnect"],
            leakage_w=pipes.leakage_w(tech),
            cycle_time_ns=self.latency_ns(ctx) / self.pipeline_stages(ctx),
        )
