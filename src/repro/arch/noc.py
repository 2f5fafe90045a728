"""Network-on-Chip: routers and links connecting the cores.

Per Sec. II-A NeuroMeter supports 2D-mesh, ring, bus, and H-tree NoCs.  The
flit width is sized from the configured bisection bandwidth (the Table I
datacenter study fixes 256 GB/s), link length comes from the core pitch,
and routers are modeled as input-buffered wormhole routers (buffers +
crossbar + allocator), the McPAT router decomposition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.circuit.dff import DffBank
from repro.circuit.gates import LogicBlock
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.tech.wire import (
    WireType,
    repeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
)
from repro.units import any_point, as_plain, dynamic_power_w, um_to_mm

#: Flits buffered per router input port.
BUFFER_DEPTH = 8

#: Crossbar gate count per port-pair per flit bit.
CROSSBAR_GATES_PER_BIT = 3

#: Allocation/arbitration logic per router.
ALLOCATOR_GATES = 4_000

MIN_FLIT_BITS = 64


class NocTopology(enum.Enum):
    """Supported NoC topologies."""

    MESH_2D = "mesh"
    RING = "ring"
    BUS = "bus"
    HTREE = "htree"


@dataclass(frozen=True)
class NocConfig:
    """NoC configuration.

    Attributes:
        topology: Network topology.
        nodes_x: Horizontal node count (``T_x`` in the paper).
        nodes_y: Vertical node count (``T_y``).
        bisection_gbps: Required bisection bandwidth per direction (GB/s).

    The node counts broadcast: arrays describe one network per design point.
    """

    topology: NocTopology
    nodes_x: int
    nodes_y: int
    bisection_gbps: float

    def __post_init__(self) -> None:
        if any_point(self.nodes_x < 1) or any_point(self.nodes_y < 1):
            raise ConfigurationError("NoC needs at least one node")
        if self.bisection_gbps <= 0:
            raise ConfigurationError("bisection bandwidth must be positive")

    @property
    def nodes(self) -> int:
        return self.nodes_x * self.nodes_y

    @property
    def bisection_links(self) -> int:
        """Links crossing the canonical bisection cut."""
        if self.topology is NocTopology.MESH_2D:
            return as_plain(np.minimum(self.nodes_x, self.nodes_y))
        if self.topology is NocTopology.RING:
            return 2
        return 1  # bus and H-tree: one shared medium crosses the cut

    @property
    def link_count(self) -> int:
        """Unidirectional-link pairs in the network."""
        if self.topology is NocTopology.MESH_2D:
            links = self.nodes_x * (self.nodes_y - 1) + self.nodes_y * (
                self.nodes_x - 1
            )
        elif self.topology is NocTopology.RING:
            links = self.nodes
        elif self.topology is NocTopology.HTREE:
            links = 2 * self.nodes - 2
        else:
            links = 1  # bus: one shared medium
        return as_plain(np.where(self.nodes == 1, 0, links))

    @property
    def router_ports(self) -> int:
        if self.topology is NocTopology.MESH_2D:
            return 5
        if self.topology in (NocTopology.RING, NocTopology.HTREE):
            return 3
        return 2  # bus interface: injection + tap

    def flit_bits(self, freq_ghz: float) -> int:
        """Flit width needed to reach the bisection bandwidth."""
        needed = self.bisection_gbps * 8.0 / (
            self.bisection_links * freq_ghz
        )
        flit = np.maximum(MIN_FLIT_BITS, np.ceil(needed))
        return int(flit) if np.ndim(flit) == 0 else flit

    def average_hops(self) -> float:
        """Mean router hops of uniform-random traffic."""
        if self.topology is NocTopology.MESH_2D:
            hops = (self.nodes_x + self.nodes_y) / 3.0
        elif self.topology is NocTopology.RING:
            hops = self.nodes / 4.0
        elif self.topology is NocTopology.HTREE:
            hops = 2.0 * np.log2(np.maximum(self.nodes, 2))
        else:
            hops = 1.0  # bus: single shared hop
        return as_plain(np.where(self.nodes == 1, 0.0, hops))


class NetworkOnChip:
    """Analytical model of the NoC at a given core pitch."""

    def __init__(self, config: NocConfig, node_pitch_mm: float):
        if any_point(node_pitch_mm <= 0):
            raise ConfigurationError("node pitch must be positive")
        self.config = config
        self.node_pitch_mm = node_pitch_mm

    # -- router ------------------------------------------------------------

    def _router_buffers(self, ctx: ModelContext) -> DffBank:
        flit = self.config.flit_bits(ctx.freq_ghz)
        bits = self.config.router_ports * BUFFER_DEPTH * flit
        return DffBank("noc-buffers", bits)

    def _router_crossbar(self, ctx: ModelContext) -> LogicBlock:
        flit = self.config.flit_bits(ctx.freq_ghz)
        ports = self.config.router_ports
        gates = ports * ports * flit * CROSSBAR_GATES_PER_BIT
        return LogicBlock("noc-crossbar", gates, activity=0.25)

    def router_energy_per_flit_pj(self, ctx: ModelContext) -> float:
        """Energy for one flit to traverse one router."""
        flit = self.config.flit_bits(ctx.freq_ghz)
        buffer_bank = DffBank("noc-buf-access", flit)
        buffer_energy = 2.0 * buffer_bank.energy_per_active_cycle_pj(
            ctx.tech
        )  # write + read
        crossbar = self._router_crossbar(ctx).energy_per_cycle_pj(ctx.tech)
        allocator = LogicBlock(
            "noc-alloc", ALLOCATOR_GATES, activity=0.3
        ).energy_per_cycle_pj(ctx.tech)
        return buffer_energy + crossbar / self.config.router_ports + allocator

    # -- link ------------------------------------------------------------

    def link_length_mm(self) -> float:
        """Length of one link (bus spans the chip edge-to-edge)."""
        if self.config.topology is NocTopology.BUS:
            return self.node_pitch_mm * np.maximum(
                self.config.nodes_x, self.config.nodes_y
            )
        return self.node_pitch_mm

    def link_energy_per_flit_pj(self, ctx: ModelContext) -> float:
        """Energy for one flit to traverse one link."""
        wire = wire_params(ctx.tech, WireType.GLOBAL)
        flit = self.config.flit_bits(ctx.freq_ghz)
        return flit * wire_energy_pj_per_bit(
            ctx.tech, wire, self.link_length_mm()
        )

    def link_latency_ns(self, ctx: ModelContext) -> float:
        """Propagation delay of one (repeated) link."""
        wire = wire_params(ctx.tech, WireType.GLOBAL)
        return repeated_wire_delay_ns(ctx.tech, wire, self.link_length_mm())

    # -- traffic (used by the performance simulator) -------------------------

    def energy_per_byte_pj(self, ctx: ModelContext) -> float:
        """Average NoC energy to move one byte between two random cores.

        Zero for a single node (no hops).
        """
        flit = self.config.flit_bits(ctx.freq_ghz)
        hops = self.config.average_hops()
        per_flit = hops * (
            self.router_energy_per_flit_pj(ctx)
            + self.link_energy_per_flit_pj(ctx)
        )
        return per_flit * 8.0 / flit

    # -- rollup ------------------------------------------------------------

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Routers + links rollup at TDP interconnect activity."""
        cfg = self.config
        tech = ctx.tech
        if np.all(cfg.nodes == 1):
            return Estimate(
                name="network-on-chip",
                area_mm2=0.0,
                dynamic_w=0.0,
                leakage_w=0.0,
            )
        activity = calibration.TDP_ACTIVITY["interconnect"]
        overhead = calibration.CLOCK_NETWORK_OVERHEAD

        buffers = self._router_buffers(ctx)
        crossbar = self._router_crossbar(ctx)
        allocator = LogicBlock("noc-alloc", ALLOCATOR_GATES, activity=0.3)
        router_area = (
            buffers.area_mm2(tech)
            + crossbar.area_mm2(tech)
            + allocator.area_mm2(tech)
        )
        router_energy = (
            self.router_energy_per_flit_pj(ctx) * cfg.router_ports * 0.5
        )
        routers = Estimate(
            name="noc routers",
            area_mm2=cfg.nodes * router_area,
            dynamic_w=cfg.nodes
            * dynamic_power_w(router_energy * overhead, ctx.freq_ghz)
            * activity,
            leakage_w=cfg.nodes
            * (
                buffers.leakage_w(tech)
                + crossbar.leakage_w(tech)
                + allocator.leakage_w(tech)
            ),
            cycle_time_ns=crossbar.delay_ns(tech),
        )

        wire = wire_params(tech, WireType.GLOBAL)
        flit = cfg.flit_bits(ctx.freq_ghz)
        # Each link pair carries flit bits in both directions.
        track_area = (
            um_to_mm(cfg.link_count * 2 * flit * wire.pitch_um)
            * self.link_length_mm()
        )
        links = Estimate(
            name="noc links",
            area_mm2=track_area,
            dynamic_w=cfg.link_count
            * dynamic_power_w(
                self.link_energy_per_flit_pj(ctx) * overhead, ctx.freq_ghz
            )
            * activity,
            leakage_w=0.0,
            cycle_time_ns=self.link_latency_ns(ctx)
            if cfg.topology is NocTopology.BUS
            else 0.0,
        )

        return Estimate.compose("network-on-chip", [routers, links])
