"""Chip assembly: cores + NoC + memory controllers + host/chip interfaces.

The chip model rolls every component into the final numbers the paper
reports: die area (with the ~21% white-space/unknown share carried for the
validation chips), thermal design power (modeled peak power times a
uniform guardband), and the full per-component breakdown trees of
Figs. 3-5 and Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.arch.core import Core, CoreConfig
from repro.arch.noc import NetworkOnChip, NocConfig, NocTopology
from repro.arch.periph import (
    DmaController,
    DramKind,
    InterChipInterconnect,
    MemoryController,
    PcieInterface,
)
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import any_point, as_plain, tops

#: Table I's NoC rule: a ring up to this many cores, a 2D mesh beyond.
RING_MAX_CORES = 4


@dataclass(frozen=True)
class ChipConfig:
    """A whole accelerator chip.

    Attributes:
        core: Per-core configuration (all cores identical).
        cores_x: Horizontal core count (``T_x``).
        cores_y: Vertical core count (``T_y``).
        noc_topology: Inter-core network topology.  Following Table I, a
            ring is used up to 4 cores and a 2D mesh from 8 cores when left
            as ``None``.
        noc_bisection_gbps: NoC bisection bandwidth per direction.
        dram: Off-chip memory technology; ``None`` omits the controller
            (test chips like Eyeriss drive plain I/O pads instead).
        offchip_bandwidth_gbps: Required off-chip bandwidth.
        pcie: Host interface; ``None`` omits it.
        ici: Inter-chip interconnect; ``None`` omits it.
        whitespace_fraction: Die fraction reserved for unknown blocks and
            white space (the paper carries ~21%).

    ``cores_x``/``cores_y`` (with the core's sizes) broadcast: arrays
    describe one chip per design point.
    """

    core: CoreConfig
    cores_x: int = 1
    cores_y: int = 1
    noc_topology: Optional[NocTopology] = None
    noc_bisection_gbps: float = 256.0
    dram: Optional[DramKind] = DramKind.HBM2
    offchip_bandwidth_gbps: float = 700.0
    pcie: Optional[PcieInterface] = field(default_factory=PcieInterface)
    ici: Optional[InterChipInterconnect] = None
    dma: DmaController = field(default_factory=DmaController)
    whitespace_fraction: float = calibration.WHITESPACE_FRACTION

    def __post_init__(self) -> None:
        if any_point(self.cores_x < 1) or any_point(self.cores_y < 1):
            raise ConfigurationError("chip needs at least one core")
        if not 0.0 <= self.whitespace_fraction < 0.9:
            raise ConfigurationError(
                "whitespace fraction must be in [0, 0.9)"
            )

    @property
    def cores(self) -> int:
        return self.cores_x * self.cores_y

    @property
    def topology(self) -> NocTopology:
        """Resolved NoC topology (Table I's ring-vs-mesh rule)."""
        if self.noc_topology is not None:
            return self.noc_topology
        if self.cores <= RING_MAX_CORES:
            return NocTopology.RING
        return NocTopology.MESH_2D

    @property
    def macs_per_cycle(self) -> int:
        """Peak chip-wide MAC throughput per cycle."""
        return self.cores * self.core.macs_per_cycle

    def peak_tops(self, freq_ghz: float) -> float:
        """Peak chip TOPS at a clock rate."""
        return tops(self.macs_per_cycle, freq_ghz)


class Chip:
    """Analytical model of the full chip."""

    def __init__(self, config: ChipConfig):
        self.config = config
        self.core = Core(config.core)

    def noc(self, ctx: ModelContext) -> NetworkOnChip:
        """The inter-core network sized for this chip's floorplan."""
        core_area = self.core.estimate(ctx).area_mm2
        return self._noc(self.config.topology, core_area)

    def _noc(
        self, topology: NocTopology, core_area_mm2: float
    ) -> NetworkOnChip:
        pitch = as_plain(np.sqrt(np.maximum(core_area_mm2, 1e-6)))
        noc_config = NocConfig(
            topology=topology,
            nodes_x=self.config.cores_x,
            nodes_y=self.config.cores_y,
            bisection_gbps=self.config.noc_bisection_gbps,
        )
        return NetworkOnChip(noc_config, node_pitch_mm=pitch)

    def nocs(self, core_area_mm2) -> list[tuple[object, NetworkOnChip]]:
        """``(points, network)`` for each NoC the core counts resolve to.

        ``points`` masks the multi-core points that use the network.  A
        scalar configuration, or one with a fixed topology, has one entry;
        over arrays of core counts Table I's rule gives rings to some
        points and meshes to others.
        """
        cfg = self.config
        multi = cfg.cores > 1
        if cfg.noc_topology is not None or np.ndim(cfg.cores) == 0:
            return [(multi, self._noc(cfg.topology, core_area_mm2))]
        mesh = cfg.cores > RING_MAX_CORES
        return [
            (multi & ~mesh, self._noc(NocTopology.RING, core_area_mm2)),
            (mesh, self._noc(NocTopology.MESH_2D, core_area_mm2)),
        ]

    def _noc_estimate(
        self, ctx: ModelContext, core_area_mm2: float
    ) -> Estimate:
        """The NoC rollup of a multi-core chip.

        Over arrays each point takes its own network's estimate, and
        single-core points a zero one, which leaves the chip sums exact.
        """
        choices = self.nocs(core_area_mm2)
        if np.ndim(self.config.cores) == 0:
            return choices[0][1].estimate(ctx)
        picked = Estimate(
            name="network-on-chip", area_mm2=0.0, dynamic_w=0.0, leakage_w=0.0
        )
        for points, noc in choices:
            if any_point(points):
                picked = Estimate.where(points, noc.estimate(ctx), picked)
        return picked

    def memory_controller(self) -> Optional[MemoryController]:
        """The off-chip memory controller block (``None`` when omitted)."""
        if self.config.dram is None:
            return None
        return MemoryController(
            kind=self.config.dram,
            bandwidth_gbps=self.config.offchip_bandwidth_gbps,
        )

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Whole-chip rollup including white space.

        The white-space child carries area only — the paper folds unknown
        blocks into area the same way but never assigns them power.
        """
        cfg = self.config
        children: list[Estimate] = []

        core_estimate = self.core.estimate(ctx)
        multi = any_point(cfg.cores > 1)
        children.append(
            core_estimate.replicated(
                cfg.cores, name="cores" if multi else "core"
            )
        )
        if multi:
            children.append(
                self._noc_estimate(ctx, core_estimate.area_mm2)
            )
        controller = self.memory_controller()
        if controller is not None:
            children.append(controller.estimate(ctx))
        if cfg.pcie is not None:
            children.append(cfg.pcie.estimate(ctx))
        if cfg.ici is not None:
            children.append(cfg.ici.estimate(ctx))
        children.append(cfg.dma.estimate(ctx))

        modeled = Estimate.compose("modeled blocks", children)
        whitespace_area = (
            modeled.area_mm2
            * cfg.whitespace_fraction
            / (1.0 - cfg.whitespace_fraction)
        )
        whitespace = Estimate(
            name="white space / unknown", area_mm2=whitespace_area,
            dynamic_w=0.0, leakage_w=0.0,
        )
        return Estimate.compose("chip", children + [whitespace])

    # -- headline numbers ------------------------------------------------------

    def area_mm2(self, ctx: ModelContext) -> float:
        """Die area including white space."""
        return self.estimate(ctx).area_mm2

    @cached_estimate
    def tdp_w(self, ctx: ModelContext) -> float:
        """Thermal design power: guardbanded dynamic plus leakage."""
        estimate = self.estimate(ctx)
        return (
            estimate.dynamic_w * calibration.CHIP_TDP_MARGIN
            + estimate.leakage_w
        )

    def max_freq_ghz(self, ctx: ModelContext) -> float:
        """Highest clock supported by the slowest component."""
        return self.estimate(ctx).max_freq_ghz

    @cached_estimate
    def peak_tops(self, ctx: ModelContext) -> float:
        """Peak TOPS at the context clock."""
        return self.config.peak_tops(ctx.freq_ghz)
