"""On-chip Memory (Mem): the scratchpad / cache storage of a core.

Per Sec. II-A, the user configures only capacity, block size, target
latency, and target throughput; the internal optimizer picks banks and
read/write ports (this is how NeuroMeter "automatically searched" TPU-v2's
two-read-one-write VMem banking).  The cell type is selectable between
DFF, SRAM, and eDRAM, and the structure may be unified (TPU-v1's unified
buffer) or dedicated (Eyeriss's per-function banks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.circuit.dff import DffBank
from repro.circuit.edram import EdramArray
from repro.circuit.gates import LogicBlock
from repro.circuit.sram import SramArray, SramRequirements, optimize_sram
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import any_point, as_plain, dynamic_power_w

#: Default pipelined access-latency budget, in cycles.
DEFAULT_LATENCY_CYCLES = 4

#: Tag + state storage overhead when configured as a cache, per block.
CACHE_TAG_BITS_PER_BLOCK = 28

#: Memory controller / arbitration logic per bank.
BANK_CONTROL_GATES = 3_000


class MemCellKind(enum.Enum):
    """Storage cell used by the on-chip memory."""

    SRAM = "sram"
    EDRAM = "edram"
    DFF = "dff"


@dataclass(frozen=True)
class OnChipMemoryConfig:
    """High-level on-chip memory configuration (the NeuroMeter inputs).

    Attributes:
        capacity_bytes: Logical capacity.
        block_bytes: Bytes per access.
        cell: Storage cell kind.
        scratchpad: Software-managed scratchpad (True) or cache (False).
        unified: Unified structure (weights + activations together) or
            dedicated per-function banks.
        read_bandwidth_gbps: Required aggregate read throughput.
        write_bandwidth_gbps: Required aggregate write throughput.
        latency_cycles: Pipelined access-latency budget in cycles.
        min_banks: Lower bound on banking (Eyeriss dedicates 27 banks).

    Capacity, block and the bandwidth targets broadcast: arrays describe
    one Mem slice per design point.
    """

    capacity_bytes: int
    block_bytes: int
    cell: MemCellKind = MemCellKind.SRAM
    scratchpad: bool = True
    unified: bool = True
    read_bandwidth_gbps: float = 0.0
    write_bandwidth_gbps: float = 0.0
    latency_cycles: int = DEFAULT_LATENCY_CYCLES
    min_banks: int = 1

    def __post_init__(self) -> None:
        if any_point(self.capacity_bytes <= 0) or any_point(
            self.block_bytes <= 0
        ):
            raise ConfigurationError("memory capacity/block must be positive")
        if self.latency_cycles < 1:
            raise ConfigurationError("latency budget must be >= 1 cycle")
        if self.min_banks < 1:
            raise ConfigurationError("min_banks must be >= 1")


class OnChipMemory:
    """Analytical model of the on-chip memory with auto-banking."""

    def __init__(self, config: OnChipMemoryConfig):
        if config.cell is MemCellKind.DFF and any_point(
            config.capacity_bytes > 65536
        ):
            raise ConfigurationError(
                "DFF-based Mem above 64 KiB is not a sensible design point"
            )
        self.config = config
        self._organization_cache: dict[
            tuple[float, float], SramArray
        ] = {}

    # -- organization ------------------------------------------------------

    def organization(self, ctx: ModelContext) -> SramArray:
        """The bank/port organization chosen by the internal optimizer.

        Memoized twice over: per instance (the dict below) and across
        instances with identical configs through the process-wide estimate
        cache, so one bank search serves every core and design point that
        shares the Mem configuration.
        """
        key = (ctx.tech.feature_nm, ctx.freq_ghz)
        if key not in self._organization_cache:
            self._organization_cache[key] = self._cached_optimize(ctx)
        return self._organization_cache[key]

    @cached_estimate
    def _cached_optimize(self, ctx: ModelContext) -> SramArray:
        return self._optimize(ctx)

    def _optimize(self, ctx: ModelContext) -> SramArray:
        cfg = self.config
        requirements = SramRequirements(
            capacity_bytes=cfg.capacity_bytes,
            block_bytes=cfg.block_bytes,
            freq_ghz=ctx.freq_ghz,
            target_latency_ns=cfg.latency_cycles * ctx.cycle_ns,
            target_read_bandwidth_gbps=cfg.read_bandwidth_gbps,
            target_write_bandwidth_gbps=cfg.write_bandwidth_gbps,
        )
        organization = optimize_sram(requirements, ctx.tech)
        if any_point(organization.banks < cfg.min_banks):
            organization = SramArray(
                capacity_bytes=cfg.capacity_bytes,
                block_bytes=cfg.block_bytes,
                banks=as_plain(np.maximum(organization.banks, cfg.min_banks)),
                read_ports=organization.read_ports,
                write_ports=organization.write_ports,
                subarray_rows=organization.subarray_rows,
            )
        return organization

    def feasible(self, ctx: ModelContext):
        """Where the organization search succeeded.

        A scalar configuration raises :class:`~repro.errors.OptimizationError`
        instead of returning False; array-valued ones get a per-point mask.
        """
        return np.isfinite(self.organization(ctx).banks)

    def _array(self, ctx: ModelContext):
        organization = self.organization(ctx)
        if self.config.cell is MemCellKind.EDRAM:
            return EdramArray(organization)
        return organization

    # -- per-access quantities (used by the runtime power model) ------------

    def read_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one block read."""
        if self.config.cell is MemCellKind.DFF:
            return self._dff_bank().energy_per_active_cycle_pj(ctx.tech) * 0.5
        return self._array(ctx).read_energy_pj(ctx.tech)

    def write_energy_pj(self, ctx: ModelContext) -> float:
        """Energy of one block write."""
        if self.config.cell is MemCellKind.DFF:
            return self._dff_bank().energy_per_active_cycle_pj(ctx.tech)
        return self._array(ctx).write_energy_pj(ctx.tech)

    def access_latency_ns(self, ctx: ModelContext) -> float:
        """Random-access read latency."""
        if self.config.cell is MemCellKind.DFF:
            return self._dff_bank().setup_plus_clk_to_q_ns(ctx.tech)
        return self._array(ctx).access_latency_ns(ctx.tech)

    def peak_read_bandwidth_gbps(self, ctx: ModelContext) -> float:
        """Aggregate read bandwidth of the chosen organization."""
        return self.organization(ctx).read_bandwidth_gbps(ctx.freq_ghz)

    def peak_write_bandwidth_gbps(self, ctx: ModelContext) -> float:
        """Aggregate write bandwidth of the chosen organization."""
        return self.organization(ctx).write_bandwidth_gbps(ctx.freq_ghz)

    def _dff_bank(self) -> DffBank:
        return DffBank("mem-dff", self.config.capacity_bytes * 8)

    def _tag_overhead(self, ctx: ModelContext) -> Optional[LogicBlock]:
        if self.config.scratchpad:
            return None
        blocks = self.config.capacity_bytes // self.config.block_bytes
        tag_gates = blocks * CACHE_TAG_BITS_PER_BLOCK // 2
        return LogicBlock("mem-tags", tag_gates, activity=0.2)

    # -- rollup ------------------------------------------------------------

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full Mem estimate, sized at the TDP access rate."""
        tech = ctx.tech
        activity = calibration.TDP_ACTIVITY["memory"]
        overhead = calibration.CLOCK_NETWORK_OVERHEAD

        if self.config.cell is MemCellKind.DFF:
            bank = self._dff_bank()
            return Estimate(
                name="on-chip memory",
                area_mm2=bank.area_mm2(tech) * 1.15,
                dynamic_w=dynamic_power_w(
                    bank.energy_per_active_cycle_pj(tech) * overhead,
                    ctx.freq_ghz,
                )
                * activity,
                leakage_w=bank.leakage_w(tech),
            )

        array = self._array(ctx)
        organization = self.organization(ctx)
        # TDP traffic: sustain the configured bandwidth targets (what the
        # compute units actually demand), bounded by the physical ports.
        bytes_per_cycle = self.config.block_bytes * ctx.freq_ghz
        reads_per_cycle = np.minimum(
            np.maximum(self.config.read_bandwidth_gbps / bytes_per_cycle, 1.0),
            organization.banks * organization.read_ports,
        )
        writes_per_cycle = np.minimum(
            np.maximum(
                self.config.write_bandwidth_gbps / bytes_per_cycle, 0.5
            ),
            organization.banks * organization.write_ports,
        )
        energy = (
            reads_per_cycle * array.read_energy_pj(tech)
            + writes_per_cycle * array.write_energy_pj(tech)
        )
        control = LogicBlock(
            "mem-ctrl", BANK_CONTROL_GATES * organization.banks
        )
        tags = self._tag_overhead(ctx)
        area = array.area_mm2(tech) + control.area_mm2(tech)
        leak = array.leakage_w(tech) + control.leakage_w(tech)
        energy += control.energy_per_cycle_pj(tech)
        if tags is not None:
            area += tags.area_mm2(tech)
            leak += tags.leakage_w(tech)
            energy += tags.energy_per_cycle_pj(tech)
        return Estimate(
            name="on-chip memory",
            area_mm2=area,
            dynamic_w=dynamic_power_w(energy * overhead, ctx.freq_ghz)
            * activity,
            leakage_w=leak,
            cycle_time_ns=array.access_latency_ns(tech)
            / self.config.latency_cycles,
        )
