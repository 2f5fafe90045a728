"""CACTI-style SRAM array model with an internal organization optimizer.

NeuroMeter asks the user only for high-level memory parameters — capacity,
block size, target latency, target throughput — and "automatically set[s]
the low-level parameters (such as the number of banks, the number of the
read/write ports) via its internal optimizer" (Sec. II).  This module
implements both halves:

* :func:`sram_physics` — the analytical area/energy/latency/leakage model
  of an organization (banks x subarrays x multi-port cells, with decoders,
  bitlines, sense amps, and an H-tree output network).  Every argument
  broadcasts, so the one implementation serves a single
  :class:`SramArray` (whose methods are views over it), the optimizer's
  candidate lattice, and the batch backend's points x candidates blocks;
* :func:`search_organizations` / :func:`optimize_sram` — the search over
  banks, ports, and subarray shape that satisfies the requirements at
  minimum area.

Units follow :mod:`repro.units` (mm^2, pJ, ns, W).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from repro.circuit.gates import LogicBlock, address_width, decoder_gate_count
from repro.circuit.rc import ladder_delay_ns
from repro.tech import calibration
from repro.errors import ConfigurationError, OptimizationError
from repro.tech.node import TechNode
from repro.tech.wire import (
    WireType,
    repeated_wire_delay_ns,
    wire_energy_pj_per_bit,
    wire_params,
)
from repro.units import (
    MiB,
    any_point,
    as_plain,
    fj_to_pj,
    mm2_to_um2,
    nw_to_w,
    ps_to_ns,
    um2_to_mm2,
    um_to_mm,
)

#: Redundancy + ECC storage overhead on top of the logical capacity.
ECC_REDUNDANCY_FACTOR = 1.20

#: Linear cell-pitch growth per port beyond the first (extra word/bit lines).
PORT_PITCH_GROWTH = 0.35

#: Area margin for inter-subarray and inter-bank routing.
ARRAY_ROUTING_OVERHEAD = 1.30

#: Read bitline swing as a fraction of Vdd (sense-amp assisted small swing).
READ_SWING = 0.25

#: Sense-amplifier energy per sensed bit at the 45 nm anchor, scaled by node.
SENSE_ENERGY_FJ_45NM = 5.0

#: SRAM cell pull-down resistance used for the bitline Elmore delay.
CELL_ON_RESISTANCE_OHM = 12_000.0

#: Word-line driver output resistance for the Elmore delay.
WORDLINE_DRIVER_OHM = 2_000.0

#: Per-subarray control gates beyond the row decoder.
SUBARRAY_CONTROL_GATES = 400

#: Gate energy (fJ) of the 45 nm anchor node the sense-amp energy scales by.
SENSE_ANCHOR_GATE_ENERGY_FJ = 1.70

#: Aspect ratio (width / height) of a 6T cell.
CELL_ASPECT = 1.45

SUBARRAY_ROW_CHOICES = (64, 128, 256, 512)
READ_PORT_CHOICES = (1, 2, 4)
WRITE_PORT_CHOICES = (1, 2)
MAX_SUBARRAY_COLS = 512
MAX_BANKS = 4096

#: The optimizer's candidate lattice as parallel float64 columns, in search
#: order: banks (1, 2, 4, ..., MAX_BANKS) outermost, then read ports, write
#: ports and subarray rows.  First-wins tie-breaking depends on the order.
LATTICE_BANKS, LATTICE_READ_PORTS, LATTICE_WRITE_PORTS, LATTICE_ROWS = (
    np.array(
        [
            (2**k, read_ports, write_ports, rows)
            for k in range(MAX_BANKS.bit_length())
            for read_ports in READ_PORT_CHOICES
            for write_ports in WRITE_PORT_CHOICES
            for rows in SUBARRAY_ROW_CHOICES
        ],
        dtype=np.float64,
    ).T
)

#: Requirements searched per block: bounds the points x candidates
#: temporaries of a batch search to a few MiB.
SEARCH_BLOCK_POINTS = 64


@dataclass(frozen=True)
class SramRequirements:
    """High-level memory requirements, as a NeuroMeter user supplies them.

    Attributes:
        capacity_bytes: Logical capacity.
        block_bytes: Bytes delivered per port per access.
        target_latency_ns: Access-latency bound; ``None`` means one clock
            cycle at ``freq_ghz``.
        target_read_bandwidth_gbps: Aggregate read throughput the memory
            must sustain (GB/s).
        target_write_bandwidth_gbps: Aggregate write throughput (GB/s).
        freq_ghz: Clock the memory is accessed at.

    Capacity, block, latency and bandwidth targets broadcast: arrays
    describe one requirement per design point.
    """

    capacity_bytes: int
    block_bytes: int
    freq_ghz: float
    target_latency_ns: Optional[float] = None
    target_read_bandwidth_gbps: float = 0.0
    target_write_bandwidth_gbps: float = 0.0

    def __post_init__(self) -> None:
        if any_point(self.capacity_bytes <= 0):
            raise ConfigurationError("memory capacity must be positive")
        if any_point(self.block_bytes <= 0):
            raise ConfigurationError("memory block size must be positive")
        if any_point(self.block_bytes * 8 > self.capacity_bytes * 8):
            raise ConfigurationError("block size exceeds capacity")
        if self.freq_ghz <= 0:
            raise ConfigurationError("memory clock must be positive")

    @property
    def latency_bound_ns(self) -> float:
        """Effective latency target (one cycle when not given explicitly)."""
        if self.target_latency_ns is not None:
            return self.target_latency_ns
        return 1.0 / self.freq_ghz


class SramPhysics(NamedTuple):
    """Physics of one organization, or a broadcast array of them.

    Bandwidths are per clock cycle; multiply by the clock in GHz for GB/s.
    """

    area_mm2: Any
    read_energy_pj: Any
    write_energy_pj: Any
    leakage_w: Any
    access_latency_ns: Any
    read_bytes_per_cycle: Any
    write_bytes_per_cycle: Any


def _subarray_cols(block_bytes):
    """Bit lines per subarray (wide blocks split across subarrays)."""
    return np.minimum(np.maximum(block_bytes * 8, 32), MAX_SUBARRAY_COLS)


def _activated_subarrays(block_bytes):
    """Subarrays accessed in parallel to deliver one block."""
    bits = block_bytes * 8
    return np.maximum(1, np.ceil(bits / _subarray_cols(block_bytes)))


def _bytes_per_cycle(banks, read_ports, write_ports, block_bytes):
    """(read, write) bytes per cycle; without write ports, writes use the
    read ports."""
    effective = np.where(write_ports > 0, write_ports, read_ports)
    return banks * read_ports * block_bytes, banks * effective * block_bytes


def sram_physics(
    tech: TechNode,
    capacity_bytes,
    block_bytes,
    banks,
    read_ports,
    write_ports,
    subarray_rows,
) -> SramPhysics:
    """Area, energy, leakage, latency and bandwidth of an organization.

    All organization arguments broadcast against each other; the result
    fields carry the broadcast shape (0-d for scalar arguments).
    """
    capacity, block, banks, read_ports, write_ports, rows = (
        np.asarray(value, dtype=np.float64)
        for value in (
            capacity_bytes,
            block_bytes,
            banks,
            read_ports,
            write_ports,
            subarray_rows,
        )
    )
    ports = read_ports + write_ports
    wire_local = wire_params(tech, WireType.LOCAL)
    wire_htree = wire_params(tech, WireType.INTERMEDIATE)

    # -- geometry ------------------------------------------------------------
    cols = _subarray_cols(block)
    activated = _activated_subarrays(block)
    bank_bits = capacity * 8 / banks * ECC_REDUNDANCY_FACTOR
    subarrays = np.maximum(activated, np.ceil(bank_bits / (rows * cols)))
    growth = 1.0 + PORT_PITCH_GROWTH * (ports - 1)
    cell_h = np.sqrt(tech.sram_cell_um2 * (growth * growth) / CELL_ASPECT)
    cell_w = CELL_ASPECT * cell_h

    # -- area ----------------------------------------------------------------
    control_gates = (
        decoder_gate_count(address_width(rows)) + SUBARRAY_CONTROL_GATES
    )
    # Cells, then column periphery (sense amps, write drivers, precharge,
    # mux: ~18 cell-heights per port under every column), row periphery
    # (decoder + word-line drivers: ~12 cell-widths), and control.
    subarray_um2 = (
        rows * cols * cell_w * cell_h
        + cols * cell_w * (18.0 * cell_h) * np.maximum(1, ports)
        + rows * cell_h * (12.0 * cell_w)
        + control_gates * tech.gate_area_um2
    )
    # Large arrays spend a growing area fraction on the H-tree spine,
    # repeater farms, and redundancy blocks; small arrays do not.
    capacity_mib = capacity / MiB
    global_routing = np.where(
        capacity_mib <= 1.0,
        1.0,
        1.0 + calibration.SRAM_CAPACITY_ROUTING_COEF * np.log2(capacity_mib),
    )
    area_mm2 = um2_to_mm2(
        banks
        * (subarrays * subarray_um2)
        * ARRAY_ROUTING_OVERHEAD
        * global_routing
    )
    bank_area_mm2 = area_mm2 / banks

    # -- energy --------------------------------------------------------------
    bits = block * 8
    bitline_len_mm = um_to_mm(rows * cell_h)
    bitline_cap_ff = (
        rows * tech.sram_cell_cap_ff
        + bitline_len_mm * wire_local.c_ff_per_mm
    )
    wordline_len_mm = um_to_mm(cols * cell_w)
    wordline_pj = fj_to_pj(
        (
            cols * tech.gate_cap_ff * 0.5
            + wordline_len_mm * wire_local.c_ff_per_mm
        )
        * tech.vdd_v**2
    )
    decode_pj = activated * LogicBlock(
        "decode", control_gates
    ).energy_per_cycle_pj(tech)
    # The average access traverses most of the bank span (data plus the
    # address/select fan-out travelling the other way).
    htree_pj = bits * wire_energy_pj_per_bit(
        tech, wire_htree, 0.9 * np.sqrt(bank_area_mm2)
    )
    read_energy_pj = (
        fj_to_pj(
            bits * bitline_cap_ff * tech.vdd_v * (READ_SWING * tech.vdd_v)
        )
        + fj_to_pj(
            bits
            * SENSE_ENERGY_FJ_45NM
            * tech.gate_energy_fj
            / SENSE_ANCHOR_GATE_ENERGY_FJ
        )
        + activated * wordline_pj
        + decode_pj
        + htree_pj
    ) * calibration.SRAM_ACCESS_OVERHEAD
    write_energy_pj = (
        fj_to_pj(bits * bitline_cap_ff * tech.vdd_v**2)
        + activated * wordline_pj
        + decode_pj
        + htree_pj
    ) * calibration.SRAM_ACCESS_OVERHEAD

    # -- leakage: cells (with port growth) plus periphery gates ---------------
    stored_bits = capacity * 8 * ECC_REDUNDANCY_FACTOR
    port_growth = 1.0 + 0.5 * PORT_PITCH_GROWTH * (ports - 1)
    cell_leak_w = nw_to_w(stored_bits * tech.sram_bit_leak_nw * port_growth)
    periph_um2 = (
        mm2_to_um2(area_mm2)
        - stored_bits * tech.sram_cell_um2 * port_growth
    )
    periph_gates = np.maximum(periph_um2, 0.0) / tech.gate_area_um2
    # Periphery is mostly idle wire/drivers; count a third as leaky gates.
    leakage_w = cell_leak_w + nw_to_w(periph_gates * tech.gate_leak_nw) / 3.0

    # -- random-access read: decode + word line + bit line + output ----------
    decode_ns = ps_to_ns((2 + address_width(rows)) * tech.fo4_ps)
    wordline_ns = ladder_delay_ns(
        total_resistance_ohm=wordline_len_mm * wire_local.r_ohm_per_mm,
        total_capacitance_ff=wordline_len_mm * wire_local.c_ff_per_mm
        + cols * tech.gate_cap_ff * 0.5,
        driver_ohm=WORDLINE_DRIVER_OHM,
    )
    bitline_ns = ladder_delay_ns(
        total_resistance_ohm=bitline_len_mm * wire_local.r_ohm_per_mm,
        total_capacitance_ff=bitline_cap_ff,
        driver_ohm=CELL_ON_RESISTANCE_OHM,
    ) * READ_SWING  # sense amps fire at the small-swing point
    sense_ns = ps_to_ns(2.0 * tech.fo4_ps)
    output_ns = repeated_wire_delay_ns(
        tech, wire_htree, 0.5 * np.sqrt(bank_area_mm2)
    )
    latency_ns = decode_ns + wordline_ns + bitline_ns + sense_ns + output_ns

    return SramPhysics(
        area_mm2,
        read_energy_pj,
        write_energy_pj,
        leakage_w,
        latency_ns,
        *_bytes_per_cycle(banks, read_ports, write_ports, block),
    )


@dataclass(frozen=True)
class SramArray:
    """A concrete multi-bank, multi-port SRAM organization.

    The model methods are views over :func:`sram_physics`.  Every field
    broadcasts: arrays describe one organization per design point (NaN
    organization fields mark points where :func:`optimize_sram` found no
    feasible organization).

    Attributes:
        capacity_bytes: Logical capacity of the whole array.
        block_bytes: Bytes per access per port.
        banks: Independently addressable banks.
        read_ports: Read ports per bank.
        write_ports: Write ports per bank.
        subarray_rows: Word lines per subarray.
    """

    capacity_bytes: int
    block_bytes: int
    banks: int = 1
    read_ports: int = 1
    write_ports: int = 1
    subarray_rows: int = 256

    def __post_init__(self) -> None:
        if any_point(self.banks < 1):
            raise ConfigurationError("bank count must be >= 1")
        if any_point(self.read_ports < 1) or any_point(self.write_ports < 0):
            raise ConfigurationError("need >= 1 read port and >= 0 write ports")
        if any_point(self.subarray_rows < 8):
            raise ConfigurationError("subarray needs at least 8 rows")
        if any_point(self.capacity_bytes < self.banks * self.block_bytes):
            raise ConfigurationError(
                "capacity too small for the requested banking"
            )

    # -- geometry ------------------------------------------------------------

    @property
    def total_ports(self) -> int:
        return self.read_ports + self.write_ports

    @property
    def subarray_cols(self) -> int:
        """Bit lines per subarray (wide blocks split across subarrays)."""
        return as_plain(_subarray_cols(self.block_bytes))

    @property
    def activated_subarrays(self) -> int:
        """Subarrays accessed in parallel to deliver one block."""
        count = _activated_subarrays(self.block_bytes)
        return int(count) if np.ndim(count) == 0 else count

    def physics(self, tech: TechNode) -> SramPhysics:
        """This organization's physics at ``tech`` (plain floats for one)."""
        return SramPhysics(
            *(
                as_plain(value)
                for value in sram_physics(
                    tech,
                    self.capacity_bytes,
                    self.block_bytes,
                    self.banks,
                    self.read_ports,
                    self.write_ports,
                    self.subarray_rows,
                )
            )
        )

    def area_mm2(self, tech: TechNode) -> float:
        """Total array area including inter-bank routing overhead."""
        return self.physics(tech).area_mm2

    def read_energy_pj(self, tech: TechNode) -> float:
        """Dynamic energy of one block read from one bank."""
        return self.physics(tech).read_energy_pj

    def write_energy_pj(self, tech: TechNode) -> float:
        """Dynamic energy of one block write (full bitline swing)."""
        return self.physics(tech).write_energy_pj

    def leakage_w(self, tech: TechNode) -> float:
        """Static power: cells (with port growth) plus periphery gates."""
        return self.physics(tech).leakage_w

    def access_latency_ns(self, tech: TechNode) -> float:
        """Random-access read latency: decode + word line + bit line + output."""
        return self.physics(tech).access_latency_ns

    def random_cycle_ns(self, tech: TechNode) -> float:
        """Minimum time between two accesses to the same bank."""
        # Precharge overlaps the output H-tree; cycle ~= core access path.
        return self.access_latency_ns(tech) * 1.1

    # -- bandwidth -----------------------------------------------------------

    def read_bandwidth_gbps(self, freq_ghz: float) -> float:
        """Peak aggregate read bandwidth (GB/s) at ``freq_ghz``."""
        read, _ = _bytes_per_cycle(
            self.banks, self.read_ports, self.write_ports, self.block_bytes
        )
        return as_plain(read * freq_ghz)

    def write_bandwidth_gbps(self, freq_ghz: float) -> float:
        """Peak aggregate write bandwidth (GB/s) at ``freq_ghz``."""
        _, write = _bytes_per_cycle(
            self.banks, self.read_ports, self.write_ports, self.block_bytes
        )
        return as_plain(write * freq_ghz)


class SramSearch(NamedTuple):
    """Winning lattice organization per requirement.

    Fields broadcast like the requirements.  Where ``feasible`` is false
    no candidate met the requirement and the organization fields are NaN
    (as is :func:`sram_physics` of them).
    """

    feasible: Any
    banks: Any
    read_ports: Any
    write_ports: Any
    subarray_rows: Any


def search_organizations(
    tech: TechNode,
    capacity_bytes,
    block_bytes,
    freq_ghz,
    latency_bound_ns,
    read_bandwidth_gbps,
    write_bandwidth_gbps,
) -> SramSearch:
    """Minimum-area lattice organization meeting each requirement.

    Every candidate must meet the latency bound and both bandwidth
    targets; ties in area break toward lower read energy, and exact
    ``(area, read_energy)`` ties toward the earlier lattice candidate.
    The requirement arguments broadcast; they are searched in blocks of
    :data:`SEARCH_BLOCK_POINTS` against the whole lattice at once.
    """
    requirements = np.broadcast_arrays(
        *(
            np.asarray(value, dtype=np.float64)
            for value in (
                capacity_bytes,
                block_bytes,
                freq_ghz,
                latency_bound_ns,
                read_bandwidth_gbps,
                write_bandwidth_gbps,
            )
        )
    )
    shape = requirements[0].shape
    flat = [value.reshape(-1, 1) for value in requirements]
    found, winners = [], []
    for start in range(0, flat[0].shape[0], SEARCH_BLOCK_POINTS):
        capacity, block, freq, bound, read_target, write_target = (
            value[start : start + SEARCH_BLOCK_POINTS] for value in flat
        )
        physics = sram_physics(
            tech,
            capacity,
            block,
            LATTICE_BANKS,
            LATTICE_READ_PORTS,
            LATTICE_WRITE_PORTS,
            LATTICE_ROWS,
        )
        feasible = (
            (capacity >= LATTICE_BANKS * block)
            & (physics.access_latency_ns <= bound)
            & (physics.read_bytes_per_cycle * freq >= read_target)
            & (physics.write_bytes_per_cycle * freq >= write_target)
        )
        area = np.where(feasible, physics.area_mm2, np.inf)
        smallest = area == area.min(axis=1, keepdims=True)
        energy = np.where(smallest, physics.read_energy_pj, np.inf)
        # argmin returns the first minimum: first-wins in lattice order.
        winners.append(energy.argmin(axis=1))
        found.append(feasible.any(axis=1))
    ok = np.concatenate(found).reshape(shape)
    choice = np.concatenate(winners).reshape(shape)
    return SramSearch(
        ok,
        *(
            np.where(ok, column[choice], np.nan)
            for column in (
                LATTICE_BANKS,
                LATTICE_READ_PORTS,
                LATTICE_WRITE_PORTS,
                LATTICE_ROWS,
            )
        ),
    )


def optimize_sram(requirements: SramRequirements, tech: TechNode) -> SramArray:
    """Search bank/port/subarray organizations and return the smallest one.

    Mirrors NeuroMeter's internal optimizer (see
    :func:`search_organizations`).  Raises :class:`OptimizationError` when
    no candidate is feasible (e.g. an unreachable latency target).  For
    array-valued requirements it returns one array-valued organization
    instead, whose fields are NaN at the infeasible points.
    """
    found = search_organizations(
        tech,
        requirements.capacity_bytes,
        requirements.block_bytes,
        requirements.freq_ghz,
        requirements.latency_bound_ns,
        requirements.target_read_bandwidth_gbps,
        requirements.target_write_bandwidth_gbps,
    )
    if np.ndim(found.feasible) > 0:
        return SramArray(
            requirements.capacity_bytes, requirements.block_bytes, *found[1:]
        )
    if not found.feasible:
        raise OptimizationError(
            f"no SRAM organization meets latency "
            f"{requirements.latency_bound_ns:.3f} ns and bandwidth "
            f"{requirements.target_read_bandwidth_gbps:.1f}R/"
            f"{requirements.target_write_bandwidth_gbps:.1f}W GB/s for "
            f"{requirements.capacity_bytes} bytes"
        )
    return SramArray(
        capacity_bytes=requirements.capacity_bytes,
        block_bytes=requirements.block_bytes,
        banks=int(found.banks),
        read_ports=int(found.read_ports),
        write_ports=int(found.write_ports),
        subarray_rows=int(found.subarray_rows),
    )
