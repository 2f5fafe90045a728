"""Unit conventions and conversion helpers.

The modeling code uses one canonical unit per physical quantity and converts
at the boundary.  Canonical units:

=============  =====================
Quantity       Canonical unit
=============  =====================
area           mm^2 (``*_mm2``)
small area     um^2 (``*_um2``, component internals)
length         mm   (``*_mm``)
time           ns   (``*_ns``)
frequency      GHz  (``*_ghz``)
energy         pJ   (``*_pj``)
power          W    (``*_w``)
capacitance    fF   (``*_ff``)
resistance     ohm  (``*_ohm``)
voltage        V    (``*_v``)
bandwidth      GB/s (``*_gbps`` is bytes, not bits)
capacity       bytes
=============  =====================

Throughput ("TOPS") counts *operations*, where one multiply-accumulate is two
operations, matching the paper (a 256x256 systolic array at 700 MHz is
92 TOPS).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

# -- scale prefixes ----------------------------------------------------------

KILO = 1e3
MEGA = 1e6
GIGA = 1e9
TERA = 1e12

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024

#: Operations per multiply-accumulate (multiply + add), the TOPS convention.
OPS_PER_MAC = 2

#: Distributed-RC product: ohm * fF = 1e-15 s = 1e-6 ns.
OHM_FF_TO_NS = 1e-6

# -- conversions -------------------------------------------------------------


def um2_to_mm2(area_um2: float) -> float:
    """Convert square micrometres to square millimetres."""
    return area_um2 * 1e-6


def mm2_to_um2(area_mm2: float) -> float:
    """Convert square millimetres to square micrometres."""
    return area_mm2 * 1e6


def ghz_to_hz(freq_ghz: float) -> float:
    """Convert gigahertz to hertz."""
    return freq_ghz * GIGA


def ns_to_s(time_ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return time_ns * 1e-9


def pj_to_j(energy_pj: float) -> float:
    """Convert picojoules to joules."""
    return energy_pj * 1e-12


def fj_to_pj(energy_fj: float) -> float:
    """Convert femtojoules to picojoules."""
    return energy_fj * 1e-3


def ps_to_ns(time_ps: float) -> float:
    """Convert picoseconds to nanoseconds."""
    return time_ps * 1e-3


def nw_to_w(power_nw: float) -> float:
    """Convert nanowatts to watts."""
    return power_nw * 1e-9


def mw_to_w(power_mw: float) -> float:
    """Convert milliwatts to watts."""
    return power_mw * 1e-3


def nm_to_um(length_nm: float) -> float:
    """Convert nanometres to micrometres."""
    return length_nm * 1e-3


def um_to_mm(length_um: float) -> float:
    """Convert micrometres to millimetres."""
    return length_um * 1e-3


def interface_power_w(
    bandwidth_gbps: float, energy_pj_per_bit: float
) -> float:
    """Sustained interface power from byte bandwidth and per-bit energy.

    ``GB/s * 8 bit/B * pJ/bit``: the Giga and pico exponents cancel to
    ``1e-3``, i.e. ``0.008 * GB/s * pJ/bit`` watts.
    """
    return bandwidth_gbps * 8.0 * energy_pj_per_bit * 1e-3


def cycle_time_ns(freq_ghz: float) -> float:
    """Clock period in nanoseconds for a clock rate in GHz."""
    if freq_ghz <= 0:
        raise ConfigurationError(
            f"frequency must be positive, got {freq_ghz} GHz"
        )
    return 1.0 / freq_ghz


def dynamic_power_w(energy_per_cycle_pj: float, freq_ghz: float) -> float:
    """Dynamic power in watts from per-cycle energy and clock rate.

    ``pJ/cycle * Gcycle/s`` conveniently equals milliwatts * 1000; the pJ and
    GHz exponents cancel to 1e-3, i.e. ``0.001 * pJ * GHz`` watts.
    """
    return energy_per_cycle_pj * freq_ghz * 1e-3


def tops(macs_per_cycle: float, freq_ghz: float) -> float:
    """Peak tera-operations per second for a MAC throughput and clock rate."""
    return macs_per_cycle * OPS_PER_MAC * freq_ghz / KILO


def as_plain(value):
    """A 0-d result as a plain Python scalar; arrays pass through unchanged.

    The model closed forms broadcast over NumPy arrays so the batch backend
    can call them; scalar callers still get ``float`` (or ``int`` for an
    integer count), because journals and cache keys ``repr`` these values.
    """
    return value.item() if getattr(value, "ndim", None) == 0 else value


def any_point(condition) -> bool:
    """True where ``condition`` holds for any design point.

    ``np.any`` for the broadcasting closed forms' validation, without its
    overhead on the plain ``bool`` a one-point comparison gives.
    """
    if condition.__class__ is bool:
        return condition
    return bool(np.any(condition))
