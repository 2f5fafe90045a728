"""Multiported register-file model.

Vector register files (VReg) and the scalar unit's integer register file are
small, heavily ported arrays.  Port count dominates their cost: every extra
port adds a word line and a bit-line pair, growing the cell pitch in both
dimensions — the classic reason NeuroMeter caps the number of TUs sharing a
VReg (Sec. III-A: eight 4x4 TUs per core push the VReg to 12.7% of core area
and 24.9% of core power).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.gates import LogicBlock, address_width, decoder_gate_count
from repro.errors import ConfigurationError
from repro.tech.node import TechNode
from repro.units import (
    any_point,
    as_plain,
    fj_to_pj,
    nw_to_w,
    ps_to_ns,
    um2_to_mm2,
)

#: A 2-port register cell is ~4x a 6T SRAM cell.
BASE_CELL_SRAM_RATIO = 4.0

#: Linear pitch growth per port beyond the second, in each dimension.
PORT_PITCH_GROWTH = 0.25

#: Peripheral (decoder/driver/mux) overhead on top of the cell array.
PERIPHERY_OVERHEAD = 1.35


@dataclass(frozen=True)
class RegisterFile:
    """A register file of ``entries`` words of ``word_bits`` bits.

    Every attribute may also be an array: the model methods broadcast, so
    the batch backend evaluates a whole grid of register files at once.
    Scalar attributes give plain ``float`` results.

    Attributes:
        entries: Number of architectural registers.
        word_bits: Width of each register in bits.
        read_ports: Simultaneous read ports.
        write_ports: Simultaneous write ports.
    """

    entries: int
    word_bits: int
    read_ports: int
    write_ports: int

    def __post_init__(self) -> None:
        if any_point(self.entries <= 0) or any_point(self.word_bits <= 0):
            raise ConfigurationError("register file needs entries and width")
        if any_point(self.read_ports < 1) or any_point(self.write_ports < 1):
            raise ConfigurationError(
                "register file needs at least one read and one write port"
            )

    @property
    def total_ports(self) -> int:
        return self.read_ports + self.write_ports

    @property
    def bits(self) -> int:
        return self.entries * self.word_bits

    def _growth(self):
        return 1.0 + PORT_PITCH_GROWTH * np.maximum(0, self.total_ports - 2)

    def _decoder_gates(self):
        return decoder_gate_count(address_width(self.entries))

    def area_mm2(self, tech: TechNode) -> float:
        """Array plus per-port decoders and drivers."""
        growth = self._growth()
        cell_um2 = (
            tech.sram_cell_um2 * BASE_CELL_SRAM_RATIO * (growth * growth)
        )
        periph_gates = self._decoder_gates() * self.total_ports
        return as_plain(
            um2_to_mm2(
                (self.bits * cell_um2 + periph_gates * tech.gate_area_um2)
                * PERIPHERY_OVERHEAD
            )
        )

    def _access_energy_pj(self, tech: TechNode, bit_fraction: float):
        per_bit_fj = tech.dff_energy_fj * bit_fraction * self._growth()
        decode = LogicBlock(
            "rf-decode", self._decoder_gates()
        ).energy_per_cycle_pj(tech)
        return as_plain(fj_to_pj(self.word_bits * per_bit_fj) + decode)

    def read_energy_pj(self, tech: TechNode) -> float:
        """Energy of one full-width read on one port."""
        return self._access_energy_pj(tech, 0.30)

    def write_energy_pj(self, tech: TechNode) -> float:
        """Energy of one full-width write on one port."""
        return self._access_energy_pj(tech, 0.55)

    def leakage_w(self, tech: TechNode) -> float:
        """Static power of cells and periphery."""
        cell_leak = nw_to_w(
            self.bits * tech.sram_bit_leak_nw * 2.0 * self._growth()
        )
        periph_gates = self._decoder_gates() * self.total_ports
        return as_plain(cell_leak + nw_to_w(periph_gates * tech.gate_leak_nw))

    def access_latency_ns(self, tech: TechNode) -> float:
        """Decode + word line + small bitline; register files are fast."""
        levels = 3 + address_width(self.entries)
        return as_plain(ps_to_ns(levels * tech.fo4_ps))
