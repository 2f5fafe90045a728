"""Vector Register file (VReg): the data-exchange hub of the core.

Per Sec. II-A, the VReg sits between the TU(s), the VU, and the on-chip
memory.  NeuroMeter reserves two read ports and one write port per attached
functional unit (a core with one TU and one VU gets the default 4R/2W for
dual issue); multiple TUs may instead share one port group, trading mapping
flexibility for area.  Port count is the dominant cost and is why the
datacenter study caps TUs per core at four (Sec. III-A).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.component import Estimate, ModelContext, cached_estimate
from repro.circuit.regfile import RegisterFile
from repro.errors import ConfigurationError
from repro.tech import calibration
from repro.units import any_point, dynamic_power_w

#: Architectural vector registers.
DEFAULT_ENTRIES = 32

#: Bits per vector element held in the VReg (accumulation width).
ELEMENT_BITS = 32

#: Ports reserved per attached functional unit.
READ_PORTS_PER_UNIT = 2
WRITE_PORTS_PER_UNIT = 1


@dataclass(frozen=True)
class VRegConfig:
    """Vector register file configuration.

    ``vector_lanes`` and ``attached_units`` broadcast: arrays of them
    describe one VReg per design point.

    Attributes:
        vector_lanes: Vector width in elements; auto-matched to the TU
            array length.
        attached_units: Functional units with private port groups (N TUs +
            1 VU unless ports are shared).
        shared_ports: When true, all TUs share a single port group (the
            paper's alternative for large N).
        entries: Number of architectural vector registers.
    """

    vector_lanes: int
    attached_units: int
    shared_ports: bool = False
    entries: int = DEFAULT_ENTRIES

    def __post_init__(self) -> None:
        if any_point(self.vector_lanes < 1):
            raise ConfigurationError("VReg needs at least one lane")
        if any_point(self.attached_units < 1):
            raise ConfigurationError("VReg needs at least one attached unit")
        if self.entries < 2:
            raise ConfigurationError("VReg needs at least two entries")

    @property
    def port_groups(self) -> int:
        """Independent port groups after optional sharing."""
        if self.shared_ports:
            return 2  # one shared TU group + the VU group
        return self.attached_units

    @property
    def read_ports(self) -> int:
        return READ_PORTS_PER_UNIT * self.port_groups

    @property
    def write_ports(self) -> int:
        return WRITE_PORTS_PER_UNIT * self.port_groups

    @property
    def issue_width(self) -> int:
        """Instructions issued per cycle (one per port group)."""
        return self.port_groups


class VectorRegisterFile:
    """Analytical model of the VReg as a wide multiported register file."""

    def __init__(self, config: VRegConfig):
        self.config = config

    def _regfile(self) -> RegisterFile:
        cfg = self.config
        return RegisterFile(
            entries=cfg.entries,
            word_bits=cfg.vector_lanes * ELEMENT_BITS,
            read_ports=cfg.read_ports,
            write_ports=cfg.write_ports,
        )

    def area_mm2(self, ctx: ModelContext) -> float:
        """Total VReg area."""
        return self._regfile().area_mm2(ctx.tech)

    def read_energy_pj(self, ctx: ModelContext) -> float:
        """One full-vector read."""
        return self._regfile().read_energy_pj(ctx.tech)

    def write_energy_pj(self, ctx: ModelContext) -> float:
        """One full-vector write."""
        return self._regfile().write_energy_pj(ctx.tech)

    def energy_per_active_cycle_pj(self, ctx: ModelContext) -> float:
        """All port groups active: 2 reads + 1 write per group."""
        rf = self._regfile()
        per_group = 2 * rf.read_energy_pj(ctx.tech) + rf.write_energy_pj(
            ctx.tech
        )
        return (
            self.config.port_groups
            * per_group
            * calibration.CLOCK_NETWORK_OVERHEAD
        )

    def cycle_time_ns(self, ctx: ModelContext) -> float:
        """Access-latency bound on the clock."""
        return self._regfile().access_latency_ns(ctx.tech)

    @cached_estimate
    def estimate(self, ctx: ModelContext) -> Estimate:
        """Full VReg estimate."""
        return Estimate(
            name="vector register file",
            area_mm2=self.area_mm2(ctx),
            dynamic_w=dynamic_power_w(
                self.energy_per_active_cycle_pj(ctx), ctx.freq_ghz
            )
            * calibration.TDP_ACTIVITY["memory"],
            leakage_w=self._regfile().leakage_w(ctx.tech),
            cycle_time_ns=self.cycle_time_ns(ctx),
        )
