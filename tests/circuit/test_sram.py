"""SRAM array model and its internal organization optimizer."""

import numpy as np
import pytest

from repro.circuit import sram as sram_mod
from repro.circuit.sram import (
    SramArray,
    SramRequirements,
    optimize_sram,
)
from repro.errors import ConfigurationError, OptimizationError
from repro.tech.node import node


@pytest.fixture(scope="module")
def tech():
    return node(28)


def _array(**kwargs) -> SramArray:
    defaults = dict(capacity_bytes=1 << 20, block_bytes=64)
    defaults.update(kwargs)
    return SramArray(**defaults)


class TestGeometry:
    def test_wide_blocks_split_across_subarrays(self):
        wide = _array(block_bytes=1024)
        assert wide.subarray_cols <= 512
        assert wide.activated_subarrays == 1024 * 8 // wide.subarray_cols

    def test_port_count(self):
        assert _array(read_ports=2, write_ports=1).total_ports == 3

    def test_invalid_organizations_rejected(self):
        with pytest.raises(ConfigurationError):
            _array(banks=0)
        with pytest.raises(ConfigurationError):
            _array(read_ports=0)
        with pytest.raises(ConfigurationError):
            _array(subarray_rows=4)
        with pytest.raises(ConfigurationError):
            SramArray(capacity_bytes=64, block_bytes=64, banks=4)


class TestArea:
    def test_area_roughly_linear_in_capacity(self, tech):
        one = _array(capacity_bytes=1 << 20).area_mm2(tech)
        four = _array(capacity_bytes=4 << 20).area_mm2(tech)
        assert 3.0 < four / one < 5.0

    def test_extra_ports_cost_area(self, tech):
        single = _array().area_mm2(tech)
        dual = _array(read_ports=2, write_ports=2).area_mm2(tech)
        assert dual > 1.3 * single

    def test_large_arrays_pay_global_routing(self, tech):
        # mm^2 per bit grows with capacity (H-tree/redundancy overhead).
        density_small = _array(capacity_bytes=1 << 20).area_mm2(tech) / (
            1 << 20
        )
        density_large = _array(capacity_bytes=32 << 20).area_mm2(tech) / (
            32 << 20
        )
        assert density_large > density_small

    def test_28nm_density_plausible(self, tech):
        # A 24 MB single-port array: 0.2 - 0.8 mm^2 per Mbit at 28 nm.
        array = _array(capacity_bytes=24 << 20, block_bytes=256, banks=2)
        per_mbit = array.area_mm2(tech) / (24 * 8)
        assert 0.2 < per_mbit < 0.8


class TestEnergy:
    def test_write_costs_more_than_read(self, tech):
        array = _array()
        assert array.write_energy_pj(tech) > array.read_energy_pj(tech)

    def test_energy_grows_with_block_size(self, tech):
        small = _array(block_bytes=32).read_energy_pj(tech)
        large = _array(block_bytes=256).read_energy_pj(tech)
        assert large > 4.0 * small

    def test_energy_per_bit_plausible(self, tech):
        array = _array(capacity_bytes=24 << 20, block_bytes=256, banks=2)
        per_bit = array.read_energy_pj(tech) / (256 * 8)
        assert 0.2 < per_bit < 5.0  # pJ/bit for a many-MB array

    def test_leakage_scales_with_capacity(self, tech):
        one = _array(capacity_bytes=1 << 20).leakage_w(tech)
        eight = _array(capacity_bytes=8 << 20).leakage_w(tech)
        assert eight > 4.0 * one


class TestTiming:
    def test_latency_grows_with_subarray_rows(self, tech):
        fast = _array(subarray_rows=64).access_latency_ns(tech)
        slow = _array(subarray_rows=512).access_latency_ns(tech)
        assert slow > fast

    def test_bank_cycle_exceeds_latency(self, tech):
        array = _array()
        assert array.random_cycle_ns(tech) > array.access_latency_ns(tech)

    def test_small_buffer_is_fast(self, tech):
        tiny = SramArray(
            capacity_bytes=4096, block_bytes=16, subarray_rows=64
        )
        assert tiny.access_latency_ns(tech) < 1.0


class TestBandwidth:
    def test_read_bandwidth_formula(self):
        array = _array(banks=4, read_ports=2, block_bytes=64)
        assert array.read_bandwidth_gbps(1.0) == pytest.approx(
            4 * 2 * 64 * 1.0
        )

    def test_write_ports_zero_share_read_port(self):
        array = SramArray(
            capacity_bytes=1 << 20,
            block_bytes=64,
            banks=2,
            read_ports=1,
            write_ports=0,
        )
        assert array.write_bandwidth_gbps(1.0) > 0


class TestOptimizer:
    def test_meets_bandwidth_targets(self, tech):
        req = SramRequirements(
            capacity_bytes=8 << 20,
            block_bytes=128,
            freq_ghz=0.7,
            target_latency_ns=6.0,
            target_read_bandwidth_gbps=500.0,
            target_write_bandwidth_gbps=200.0,
        )
        org = optimize_sram(req, tech)
        assert org.read_bandwidth_gbps(0.7) >= 500.0
        assert org.write_bandwidth_gbps(0.7) >= 200.0
        assert org.access_latency_ns(tech) <= 6.0

    def test_prefers_minimum_area(self, tech):
        relaxed = SramRequirements(
            capacity_bytes=1 << 20,
            block_bytes=64,
            freq_ghz=0.7,
            target_latency_ns=20.0,
        )
        org = optimize_sram(relaxed, tech)
        # A relaxed target should not buy extra ports.
        assert org.read_ports == 1
        assert org.write_ports == 1

    def test_higher_bandwidth_never_shrinks_the_array(self, tech):
        base = SramRequirements(
            capacity_bytes=4 << 20,
            block_bytes=64,
            freq_ghz=0.7,
            target_latency_ns=10.0,
            target_read_bandwidth_gbps=100.0,
        )
        demanding = SramRequirements(
            capacity_bytes=4 << 20,
            block_bytes=64,
            freq_ghz=0.7,
            target_latency_ns=10.0,
            target_read_bandwidth_gbps=2_000.0,
        )
        assert optimize_sram(demanding, tech).area_mm2(tech) >= (
            optimize_sram(base, tech).area_mm2(tech)
        )

    def test_unreachable_latency_raises(self, tech):
        impossible = SramRequirements(
            capacity_bytes=64 << 20,
            block_bytes=256,
            freq_ghz=0.7,
            target_latency_ns=0.01,
        )
        with pytest.raises(OptimizationError):
            optimize_sram(impossible, tech)

    def test_tpu_v2_vmem_ports_are_discovered(self):
        # Sec. II-C: NeuroMeter automatically finds that TPU-v2's VMem
        # needs two read ports and one write port per bank at the given
        # throughput.  Reproduce the search outcome.
        t16 = node(16)
        req = SramRequirements(
            capacity_bytes=8 << 20,
            block_bytes=128,
            freq_ghz=0.7,
            target_latency_ns=4 / 0.7,
            target_read_bandwidth_gbps=2 * 128 * 0.7 * 4,
            target_write_bandwidth_gbps=128 * 0.7 * 4,
        )
        org = optimize_sram(req, t16)
        assert org.read_bandwidth_gbps(0.7) >= 2 * 128 * 0.7 * 4
        assert org.write_ports >= 1


class TestRequirements:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            SramRequirements(capacity_bytes=0, block_bytes=8, freq_ghz=1.0)
        with pytest.raises(ConfigurationError):
            SramRequirements(
                capacity_bytes=64, block_bytes=0, freq_ghz=1.0
            )
        with pytest.raises(ConfigurationError):
            SramRequirements(
                capacity_bytes=64, block_bytes=8, freq_ghz=0.0
            )

    def test_default_latency_is_one_cycle(self):
        req = SramRequirements(
            capacity_bytes=1024, block_bytes=8, freq_ghz=2.0
        )
        assert req.latency_bound_ns == pytest.approx(0.5)


def _feasible(requirements, tech):
    """``(key, organization)`` of each feasible lattice candidate, walked
    one organization at a time in lattice order."""
    banks = 1
    while banks <= sram_mod.MAX_BANKS:
        if requirements.capacity_bytes >= banks * requirements.block_bytes:
            for read_ports in (1, 2, 4):
                for write_ports in (1, 2):
                    for rows in (64, 128, 256, 512):
                        candidate = SramArray(
                            requirements.capacity_bytes,
                            requirements.block_bytes,
                            banks,
                            read_ports,
                            write_ports,
                            rows,
                        )
                        physics = candidate.physics(tech)
                        freq = requirements.freq_ghz
                        if (
                            physics.access_latency_ns
                            <= requirements.latency_bound_ns
                            and candidate.read_bandwidth_gbps(freq)
                            >= requirements.target_read_bandwidth_gbps
                            and candidate.write_bandwidth_gbps(freq)
                            >= requirements.target_write_bandwidth_gbps
                        ):
                            key = (physics.area_mm2, physics.read_energy_pj)
                            yield key, candidate
        banks *= 2


def _brute_force(requirements, tech):
    """Reference search: strict tuple ``<`` over the walk, first wins."""
    best = None
    for key, candidate in _feasible(requirements, tech):
        if best is None or key < best[0]:
            best = (key, candidate)
    if best is None:
        raise OptimizationError(
            f"no SRAM organization meets latency "
            f"{requirements.latency_bound_ns:.3f} ns and bandwidth "
            f"{requirements.target_read_bandwidth_gbps:.1f}R/"
            f"{requirements.target_write_bandwidth_gbps:.1f}W GB/s for "
            f"{requirements.capacity_bytes} bytes"
        )
    return best[1]


def _outcome(search, requirements, tech):
    try:
        return search(requirements, tech)
    except OptimizationError as error:
        return str(error)


#: TPU-v2's VMem at 16 nm: two read ports and one write port per bank.
_TPU_V2_VMEM = SramRequirements(
    capacity_bytes=8 << 20,
    block_bytes=128,
    freq_ghz=0.7,
    target_latency_ns=4 / 0.7,
    target_read_bandwidth_gbps=2 * 128 * 0.7 * 4,
    target_write_bandwidth_gbps=128 * 0.7 * 4,
)

_REQUIREMENT_GRID = [
    (node(nm), SramRequirements(
        capacity_bytes=capacity,
        block_bytes=block,
        freq_ghz=freq,
        target_latency_ns=4 / freq,
        target_read_bandwidth_gbps=read,
        target_write_bandwidth_gbps=read / 2,
    ))
    for nm, freq in ((28, 0.7), (7, 2.5))
    for capacity, block in ((4096, 16), (64 << 10, 256), (24 << 20, 256))
    for read in (0.0, 700.0, 20_000.0)
] + [
    (node(16), _TPU_V2_VMEM),
    # Unreachable latency: both searches must raise the same error.
    (node(28), SramRequirements(64 << 20, 256, 0.7, target_latency_ns=0.01)),
]


@pytest.mark.parametrize("tech,requirements", _REQUIREMENT_GRID)
def test_optimizer_matches_brute_force_walk(tech, requirements):
    assert _outcome(optimize_sram, requirements, tech) == _outcome(
        _brute_force, requirements, tech
    )


def test_exact_ties_break_toward_the_earlier_candidate(monkeypatch):
    """Quantize area and read energy so many candidates tie exactly."""
    exact = sram_mod.sram_physics

    def coarse(*args):
        physics = exact(*args)
        return physics._replace(
            area_mm2=np.round(physics.area_mm2, 0),
            read_energy_pj=np.round(physics.read_energy_pj, -2),
        )

    monkeypatch.setattr(sram_mod, "sram_physics", coarse)
    tech = node(28)
    requirements = SramRequirements(
        capacity_bytes=1 << 20,
        block_bytes=64,
        freq_ghz=0.7,
        target_latency_ns=20.0,
        target_read_bandwidth_gbps=100.0,
    )
    keys = [key for key, _ in _feasible(requirements, tech)]
    assert keys.count(min(keys)) > 1  # the tie the rule has to break
    assert optimize_sram(requirements, tech) == _brute_force(
        requirements, tech
    )
