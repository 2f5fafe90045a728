"""Tensor Unit (TU): the systolic-array compute engine.

Per Sec. II-A, a TU is (1) an array of systolic cells — each a MAC plus a
DFF- or SRAM-based local buffer, (2) the wires between neighbouring cells,
and (3) DFF-based I/O FIFOs.  Two inner-TU interconnects are modeled:

* ``UNICAST`` — nearest-neighbour systolic links (TPU-v1 style), supporting
  weight-stationary and output-stationary dataflows, and
* ``MULTICAST`` — X/Y buses from the I/O FIFOs to every cell (Eyeriss
  style), whose bus is abstracted into the pi-RC model for timing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.circuit.dff import DffBank
from repro.circuit.gates import LogicBlock
from repro.circuit.mac import MacModel
from repro.circuit.rc import ladder_delay_ns
from repro.circuit.sram import SramArray
from repro.datatypes import INT8, DataType
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.wire import WireType, wire_energy_pj_per_bit, wire_params
from repro.units import (
    any_point,
    as_plain,
    dynamic_power_w,
    fj_to_pj,
    mm2_to_um2,
    um2_to_mm2,
    um_to_mm,
)


#: Placement overhead of the distributed I/O FIFO lanes.
FIFO_PLACEMENT_OVERHEAD = 1.15


class InterconnectKind(enum.Enum):
    """Inner-TU interconnection style (Fig. 2(c))."""

    UNICAST = "unicast"
    MULTICAST = "multicast"


class Dataflow(enum.Enum):
    """Systolic dataflow for unicast TUs."""

    WEIGHT_STATIONARY = "weight_stationary"
    OUTPUT_STATIONARY = "output_stationary"


@dataclass(frozen=True)
class SystolicCellConfig:
    """One systolic cell (SC).

    Attributes:
        input_dtype: Multiplier operand type.
        accum_dtype: Accumulator type; ``None`` picks the MAC default
            (int32 for integer inputs, fp32 for float inputs).
        spad_bytes: SRAM scratchpad inside the cell (Eyeriss-style PEs;
            0 for plain systolic cells).
        reg_bytes: Register-file bytes inside the cell beyond the pipeline
            registers (Eyeriss carries 72 B).
        control_gates: Per-cell control logic (larger for PEs that run
            their own dataflow control).
    """

    input_dtype: DataType = INT8
    accum_dtype: DataType = None  # type: ignore[assignment]
    spad_bytes: int = 0
    reg_bytes: int = 0
    control_gates: int = 150

    def __post_init__(self) -> None:
        if self.spad_bytes < 0 or self.reg_bytes < 0 or self.control_gates < 0:
            raise ConfigurationError("systolic cell sizes must be >= 0")

    @property
    def mac(self) -> MacModel:
        """The cell's multiply-accumulate unit."""
        if self.accum_dtype is None:
            return MacModel(self.input_dtype)
        return MacModel(self.input_dtype, self.accum_dtype)

    @property
    def pipeline_bits(self) -> int:
        """DFF bits for the systolic pipeline (weight + operand + psum)."""
        mac = self.mac
        return 2 * self.input_dtype.bits + mac.accum_dtype.bits


@dataclass(frozen=True)
class TensorUnitConfig:
    """A full tensor unit.

    ``rows`` and ``cols`` broadcast: arrays of them describe one TU per
    design point.

    Attributes:
        rows: Systolic array height (the paper's TU length ``X``).
        cols: Systolic array width.
        cell: Systolic cell configuration.
        interconnect: Inner-TU interconnect kind.
        dataflow: Dataflow for unicast arrays.
        fifo_depth: Entries per I/O FIFO lane.
    """

    rows: int
    cols: int
    cell: SystolicCellConfig = field(default_factory=SystolicCellConfig)
    interconnect: InterconnectKind = InterconnectKind.UNICAST
    dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY
    fifo_depth: int = 8

    def __post_init__(self) -> None:
        if any_point(self.rows < 1) or any_point(self.cols < 1):
            raise ConfigurationError(
                f"tensor unit must be at least 1x1, got {self.rows}x{self.cols}"
            )
        if self.fifo_depth < 1:
            raise ConfigurationError("FIFO depth must be >= 1")

    @property
    def macs(self) -> int:
        """MAC units in the array."""
        return self.rows * self.cols

    @property
    def fill_drain_cycles(self) -> int:
        """Pipeline fill + drain latency of the systolic wavefront."""
        return self.rows + self.cols


class TensorUnit:
    """Analytical power/area/timing model of one tensor unit."""

    def __init__(self, config: TensorUnitConfig):
        self.config = config

    # -- geometry ------------------------------------------------------------

    def _spad(self) -> SramArray:
        spad_bytes = self.config.cell.spad_bytes
        return SramArray(
            capacity_bytes=max(spad_bytes, 8),
            block_bytes=2,
            banks=1,
            subarray_rows=max(8, min(64, spad_bytes // 2 or 8)),
        )

    def _span_wiring_factor(self) -> float:
        """Extra per-cell track overhead for operand/clock spines.

        Grows with the array span: distributing operands across a 256x256
        array needs far more wiring per cell than across a 14x12 one.
        """
        span = self.config.rows + self.config.cols
        return 1.0 + calibration.ARRAY_SPAN_WIRING_COEF * span

    def cell_area_mm2(self, ctx: ModelContext) -> float:
        """Area of one systolic cell including intra-array routing."""
        cfg = self.config.cell
        area_um2 = cfg.mac.area_um2(ctx.tech)
        area_um2 += cfg.pipeline_bits * ctx.tech.dff_area_um2
        # Local register storage uses dense custom register-file cells, not
        # standard-cell flops (Eyeriss-style PEs carry 72 B of these).
        area_um2 += cfg.reg_bytes * 8 * ctx.tech.sram_cell_um2 * 6.0
        area_um2 += cfg.control_gates * ctx.tech.gate_area_um2
        if cfg.spad_bytes:
            area_um2 += mm2_to_um2(self._spad().area_mm2(ctx.tech))
        return (
            um2_to_mm2(area_um2)
            * calibration.DATAPATH_ROUTING_OVERHEAD
            * self._span_wiring_factor()
        )

    def cell_pitch_mm(self, ctx: ModelContext) -> float:
        """Edge length of one (square) systolic cell."""
        return as_plain(np.sqrt(self.cell_area_mm2(ctx)))

    def array_area_mm2(self, ctx: ModelContext) -> float:
        """Area of the cell array alone."""
        return self.config.macs * self.cell_area_mm2(ctx)

    def _fifo(self) -> DffBank:
        cfg = self.config
        in_bits = cfg.cell.input_dtype.bits
        out_bits = cfg.cell.mac.accum_dtype.bits
        lane_bits = cfg.rows * in_bits + cfg.cols * (in_bits + out_bits)
        return DffBank("tu-io-fifo", lane_bits * cfg.fifo_depth)

    # -- energy ------------------------------------------------------------

    def cell_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one cell doing one MAC step (registers included)."""
        cfg = self.config.cell
        energy = cfg.mac.energy_per_mac_pj(ctx.tech)
        pipeline = DffBank("sc-pipe", cfg.pipeline_bits)
        energy += pipeline.energy_per_active_cycle_pj(ctx.tech)
        if cfg.reg_bytes:
            # Dense RF storage: ~two word accesses per MAC step, not a
            # whole-bank toggle.
            word_bits = cfg.input_dtype.bits
            energy += fj_to_pj(
                2 * word_bits * ctx.tech.dff_energy_fj * 0.4
            )
        if cfg.spad_bytes:
            spad = self._spad()
            # One small-word read + write per MAC step on average.
            energy += 0.5 * (
                spad.read_energy_pj(ctx.tech) + spad.write_energy_pj(ctx.tech)
            )
        energy += LogicBlock(
            "sc-ctrl", cfg.control_gates, activity=0.2
        ).energy_per_cycle_pj(ctx.tech)
        return energy

    def _interconnect_energy_pj(self, ctx: ModelContext) -> float:
        """Per-cycle energy of the inner-TU interconnect at full activity."""
        cfg = self.config
        wire = wire_params(ctx.tech, WireType.LOCAL)
        pitch = self.cell_pitch_mm(ctx)
        in_bits = cfg.cell.input_dtype.bits
        out_bits = cfg.cell.mac.accum_dtype.bits
        if cfg.interconnect is InterconnectKind.UNICAST:
            # Operands hop one pitch right, partial sums one pitch down.
            hops = cfg.macs * (in_bits + out_bits)
            return hops * wire_energy_pj_per_bit(ctx.tech, wire, pitch)
        # Multicast: each row/column bus spans the array; one operand
        # delivery drives the full bus.
        row_bus_mm = cfg.cols * pitch
        col_bus_mm = cfg.rows * pitch
        avg_bus_mm = (row_bus_mm + col_bus_mm) / 2.0
        bus = cfg.rows * in_bits * wire_energy_pj_per_bit(
            ctx.tech, wire, row_bus_mm
        ) + cfg.cols * in_bits * wire_energy_pj_per_bit(
            ctx.tech, wire, col_bus_mm
        )
        # Output collection over the average bus span.
        bus += cfg.cols * out_bits * wire_energy_pj_per_bit(
            ctx.tech, wire, avg_bus_mm
        )
        return bus

    def _span_energy_factor(self) -> float:
        """Operand-delivery energy scaling with the array span.

        Normalized to 1.0 at the TPU-v1 anchor span (512 = 256 + 256), so
        the chip-level calibration is untouched; smaller arrays move
        operands over shorter spines and pay less per cell.
        """
        span = self.config.rows + self.config.cols
        floor = calibration.ARRAY_SPAN_ENERGY_FLOOR
        scale = np.minimum(span / calibration.ARRAY_SPAN_ENERGY_NORM, 2.0)
        return as_plain(floor + (1.0 - floor) * scale)

    def energy_per_active_cycle_pj(self, ctx: ModelContext) -> float:
        """Whole-TU energy on a fully active cycle (clock tree included)."""
        cells = self.config.macs * self.cell_energy_pj(ctx)
        fifo = self._fifo().energy_per_active_cycle_pj(ctx.tech)
        wires = self._interconnect_energy_pj(ctx)
        return (
            (cells * self._span_energy_factor() + fifo + wires)
            * calibration.CLOCK_NETWORK_OVERHEAD
        )

    def energy_per_mac_pj(self, ctx: ModelContext) -> float:
        """Average energy per MAC at full array utilization."""
        return self.energy_per_active_cycle_pj(ctx) / self.config.macs

    # -- timing ------------------------------------------------------------

    def cycle_time_ns(self, ctx: ModelContext) -> float:
        """Minimum clock period of the TU."""
        cfg = self.config
        cell_ns = cfg.cell.mac.delay_ns(ctx.tech) + DffBank(
            "sc-pipe", 1
        ).setup_plus_clk_to_q_ns(ctx.tech)
        if cfg.interconnect is InterconnectKind.UNICAST:
            return cell_ns
        return as_plain(np.maximum(cell_ns, self.multicast_bus_delay_ns(ctx)))

    def multicast_bus_delay_ns(self, ctx: ModelContext) -> float:
        """Elmore delay of the longest X/Y multicast bus (pi-RC segments).

        The FIFO output driver is the source resistance and every cell tap
        adds a gate load along the distributed wire, exactly the
        decomposition of Fig. 2(d).
        """
        cfg = self.config
        wire = wire_params(ctx.tech, WireType.LOCAL)
        span = np.maximum(cfg.rows, cfg.cols)
        length_mm = span * self.cell_pitch_mm(ctx)
        taps_ff = span * ctx.tech.gate_cap_ff * 2.0
        return as_plain(
            ladder_delay_ns(
                total_resistance_ohm=length_mm * wire.r_ohm_per_mm,
                total_capacitance_ff=length_mm * wire.c_ff_per_mm + taps_ff,
                driver_ohm=1_500.0,
            )
        )

    # -- rollup ------------------------------------------------------------

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full TU estimate with cell-array / FIFO / interconnect children."""
        tech = ctx.tech
        cfg = self.config
        activity = calibration.TDP_ACTIVITY["compute"]
        overhead = calibration.CLOCK_NETWORK_OVERHEAD

        cell_leak = cfg.cell.mac.leakage_w(tech)
        cell_leak += DffBank("sc-pipe", cfg.cell.pipeline_bits).leakage_w(tech)
        cell_leak += cfg.cell.reg_bytes * 8 * tech.sram_bit_leak_nw * 2e-9
        cell_leak += LogicBlock("sc-ctrl", cfg.cell.control_gates).leakage_w(
            tech
        )
        if cfg.cell.spad_bytes:
            cell_leak += self._spad().leakage_w(tech)

        array = Estimate(
            name="systolic cells",
            area_mm2=self.array_area_mm2(ctx),
            dynamic_w=dynamic_power_w(
                cfg.macs
                * self.cell_energy_pj(ctx)
                * self._span_energy_factor()
                * overhead,
                ctx.freq_ghz,
            )
            * activity,
            leakage_w=cfg.macs * cell_leak,
            cycle_time_ns=cfg.cell.mac.delay_ns(tech)
            + DffBank("sc", 1).setup_plus_clk_to_q_ns(tech),
        )

        fifo_bank = self._fifo()
        fifo = Estimate(
            name="io fifo",
            area_mm2=fifo_bank.area_mm2(tech) * FIFO_PLACEMENT_OVERHEAD,
            dynamic_w=dynamic_power_w(
                fifo_bank.energy_per_active_cycle_pj(tech) * overhead,
                ctx.freq_ghz,
            )
            * activity,
            leakage_w=fifo_bank.leakage_w(tech),
        )

        wire = wire_params(tech, WireType.LOCAL)
        pitch = self.cell_pitch_mm(ctx)
        in_bits = cfg.cell.input_dtype.bits
        out_bits = cfg.cell.mac.accum_dtype.bits
        track_mm2 = um_to_mm(wire.pitch_um) * pitch
        wire_area = cfg.macs * (in_bits + out_bits) * track_mm2
        interconnect = Estimate(
            name="inner-tu interconnect",
            area_mm2=wire_area,
            dynamic_w=dynamic_power_w(
                self._interconnect_energy_pj(ctx) * overhead, ctx.freq_ghz
            )
            * calibration.TDP_ACTIVITY["interconnect"],
            leakage_w=0.0,
            cycle_time_ns=(
                self.multicast_bus_delay_ns(ctx)
                if cfg.interconnect is InterconnectKind.MULTICAST
                else 0.0
            ),
        )

        return Estimate.compose(
            "tensor unit", [array, fifo, interconnect]
        )
