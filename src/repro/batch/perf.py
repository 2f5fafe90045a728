"""Batched performance simulation: the ``repro/perf`` stack over arrays.

The scalar path evaluates workloads one design point at a time: build the
chip, derive the :class:`~repro.perf.mapping.ArchView`, walk the graph
layer by layer through :func:`~repro.perf.mapping.map_gemm` and
:meth:`~repro.perf.simulator.Simulator.run`, then combine the activity
factors in :func:`~repro.power.runtime.runtime_power`.  Every quantity in
that walk is a closed form of the design tuple, so this module transcribes
it into NumPy array ops over *all* points of a sweep at once — the same
float64 operations in the same order, which keeps the results bit-exact
(integer intermediates stay below 2**53 on the Table I workloads, and
IEEE-754 ops on exactly-represented values are deterministic).

The per-layer loop stays a Python loop (a graph has tens of layers); the
per-*point* dimension — the axis that grows with sweep size — is fully
vectorized.  Kernels use only array-API-standard operations so a GPU array
namespace (e.g. ``cupy``) can be swapped in later.

The per-active-cycle energies of the tensor, vector and scalar units and
the VReg, and the NoC's energy per byte, are not transcribed: runtime
power calls the architecture models themselves on the substrate's
array-valued chip (:meth:`~repro.batch.substrate.TechSubstrate.chip`),
since those models broadcast over the design-point fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.chip import Chip
from repro.arch.component import ModelContext
from repro.batch.substrate import TechSubstrate
from repro.errors import MappingError
from repro.perf.graph import Graph
from repro.perf.ops import Conv2d
from repro.perf.optimizations import OptimizationConfig
from repro.perf.optimizations import _FOLD, _STEM_CHANNEL_BOUND
from repro.perf.simulator import (
    BATCH_CANDIDATES,
    DEFAULT_LATENCY_SLO_MS,
    _ACTIVATION_MEM_SHARE,
    _POINTWISE_SIMD,
    _fusable,
    _vector_simd,
)
from repro.power.runtime import _DRAM_IDLE_FRACTION, _FILL_ENERGY_FRACTION
from repro.tech import calibration
from repro.units import GIGA, OPS_PER_MAC, dynamic_power_w

#: Partial-sum width on the NoC (mirrors ``repro.perf.mapping``).
_PSUM_BYTES = 4

#: Smallest M chunk worth splitting a tile pass over.
_MIN_M_CHUNK_FACTOR = 2


# -- the simulator's chip summary, as arrays -----------------------------------


@dataclass(frozen=True)
class ArchArrays:
    """:class:`~repro.perf.mapping.ArchView` transcribed to point arrays.

    Every attribute mirrors its scalar namesake; ``multi`` is the
    ``cores > 1`` mask that gates the NoC bound and the NoC power term.
    """

    tu_rows: np.ndarray
    tus: np.ndarray
    cores: np.ndarray
    vu_lanes_total: np.ndarray
    macs_per_cycle: np.ndarray
    freq_ghz: float
    mem_capacity_bytes: np.ndarray
    mem_read_gbps: np.ndarray
    mem_write_gbps: np.ndarray
    noc_gbps: np.ndarray
    offchip_gbps: np.ndarray
    multi: np.ndarray

    @classmethod
    def of(
        cls,
        sub: TechSubstrate,
        grid: Dict[str, np.ndarray],
        x: np.ndarray,
        n: np.ndarray,
        cores: np.ndarray,
    ) -> "ArchArrays":
        """Build the view from ``estimate_grid`` outputs.

        Mirrors ``ArchView.of``: the Mem bandwidth is the *chosen SRAM
        organization's* aggregate bandwidth times the core count, the NoC
        carries the bisection bandwidth only on multi-core chips, and the
        MAC throughput is ``cores * N * X**2``.
        """
        x = np.asarray(x, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        cores = np.asarray(cores, dtype=np.float64)
        multi = cores > 1
        config = sub.template.config
        return cls(
            tu_rows=x,
            tus=cores * n,
            cores=cores,
            vu_lanes_total=cores * grid["lanes"],
            macs_per_cycle=cores * (n * (x * x)),
            freq_ghz=sub.ctx.freq_ghz,
            mem_capacity_bytes=cores * grid["mem_capacity_bytes"],
            mem_read_gbps=cores * grid["mem_peak_read_gbps"],
            mem_write_gbps=cores * grid["mem_peak_write_gbps"],
            noc_gbps=np.where(multi, config.noc_bisection_gbps, 0.0),
            offchip_gbps=np.full(
                cores.shape, config.offchip_bandwidth_gbps, dtype=np.float64
            ),
            multi=multi,
        )


def _to_cycles(
    bytes_moved, bandwidth_gbps, freq_ghz: float
) -> np.ndarray:
    """``Simulator._to_cycles`` over arrays (exact float-op order)."""
    moved = np.asarray(bytes_moved, dtype=np.float64)
    bw = np.asarray(bandwidth_gbps, dtype=np.float64)
    moving = moved > 0
    if np.any(moving & (bw <= 0)):
        raise MappingError("traffic on a zero-bandwidth path")
    safe_bw = np.where(bw > 0, bw, 1.0)
    seconds = moved / (safe_bw * GIGA)
    return np.where(
        moving, np.ceil(seconds * freq_ghz * GIGA), 0.0
    )


# -- the weight-stationary mapper, as arrays -----------------------------------


def map_weight_stationary_arrays(
    m, k, n_dim, arch: ArchArrays, opt: OptimizationConfig
) -> Dict[str, np.ndarray]:
    """``_map_weight_stationary`` with array-valued GEMM dims and arch.

    ``m`` may vary per point (batch scaling); ``k``/``n_dim`` are scalars
    or arrays.  Returns the mapping quantities the simulator consumes.
    All intermediates are exact integers in float64, so every ``ceil``
    and floor-division matches the scalar ``math`` calls bit for bit.
    """
    x = arch.tu_rows
    m = np.asarray(m, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    n_dim = np.asarray(n_dim, dtype=np.float64)

    k_tiles = np.ceil(k / x)
    n_tiles = np.ceil(n_dim / x)
    tiles = k_tiles * n_tiles

    min_chunk = _MIN_M_CHUNK_FACTOR * x
    split = (n_tiles < arch.tus) & (m > min_chunk)
    chunks_per_tile = np.where(
        split,
        np.minimum(np.ceil(arch.tus / n_tiles), np.ceil(m / min_chunk)),
        1.0,
    )
    n_parallel = n_tiles * chunks_per_tile
    k_parallel = np.where(
        n_parallel >= arch.tus,
        1.0,
        np.minimum(k_tiles, np.ceil(arch.tus / n_parallel)),
    )
    total_passes = tiles * chunks_per_tile
    m_part = np.ceil(m / chunks_per_tile)

    fill_drain = 2 * x
    weight_load = 0.0 if opt.double_buffering else x
    per_pass = m_part + weight_load + opt.tile_overhead_cycles
    if not opt.double_buffering:
        per_pass = per_pass + fill_drain
    rounds = np.ceil(total_passes / arch.tus)
    compute_cycles = rounds * per_pass + fill_drain

    merge_ops = m * n_dim * (k_parallel - 1)

    m_parallelism = np.maximum(1.0, np.floor_divide(m, min_chunk))
    data_parallel_cores = np.minimum(arch.cores, m_parallelism)
    cross_fraction = (arch.cores - data_parallel_cores) / arch.cores
    psum_noc = np.ceil(
        m * n_dim * _PSUM_BYTES * (k_parallel - 1) * cross_fraction
    )
    broadcast_noc = np.ceil(m * k * cross_fraction)
    weight_replicas = np.minimum(chunks_per_tile, arch.cores)
    broadcast_noc = broadcast_noc + k * n_dim * np.maximum(
        weight_replicas - 1, 0.0
    )
    noc_bytes = np.where(arch.multi, psum_noc + broadcast_noc, 0.0)

    reuse = np.maximum(
        1.0, np.minimum(n_tiles, opt.activation_reuse_tiles)
    )
    act_reads = m * k * np.ceil(n_tiles / reuse)
    merge_spill = m * n_dim * _PSUM_BYTES * np.maximum(k_parallel - 1, 0.0)
    mem_reads = act_reads + k * n_dim + merge_spill
    mem_writes = m * n_dim + merge_spill

    return {
        "compute_cycles": compute_cycles,
        "useful_macs": m * k * n_dim,
        "occupied_mac_cycles": total_passes * per_pass * x * x,
        "merge_vector_ops": merge_ops,
        "mem_read_bytes": np.ceil(mem_reads),
        "mem_write_bytes": np.ceil(mem_writes),
        "noc_bytes": noc_bytes,
    }


# -- graph flattening ----------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """One graph layer's point-independent quantities.

    The batched simulator walks these instead of live ``LayerNode``
    objects: the per-sample costs, the base GEMM dims (before batch
    scaling), and the layer-class predicates that gate fusion, SIMD
    packing, space-to-depth, and the launch overhead.
    """

    name: str
    has_gemm: bool
    gemm_m: int
    gemm_k: int
    gemm_n: int
    space_to_depth: bool
    macs: int
    vector_ops: int
    params_bytes: int
    input_bytes: int
    output_bytes: int
    simd: int
    fusable: bool
    pays_launch: bool


@dataclass(frozen=True)
class GraphSpec:
    """A whole graph flattened for batched simulation."""

    name: str
    layers: Tuple[LayerSpec, ...]
    total_macs: int
    total_params_bytes: int

    @classmethod
    def of(cls, graph: Graph, opt: OptimizationConfig) -> "GraphSpec":
        layers: List[LayerSpec] = []
        for layer in graph:
            cost = layer.cost()
            has_gemm = cost.gemm is not None
            fusable = layer.op is not None and _fusable(layer.op)
            s2d = (
                has_gemm
                and opt.space_to_depth
                and isinstance(layer.op, Conv2d)
                and not (
                    layer.input_shape[2] > _STEM_CHANNEL_BOUND
                    or layer.op.stride < _FOLD
                )
            )
            layers.append(
                LayerSpec(
                    name=layer.name,
                    has_gemm=has_gemm,
                    gemm_m=cost.gemm.m if has_gemm else 0,
                    gemm_k=cost.gemm.k if has_gemm else 0,
                    gemm_n=cost.gemm.n if has_gemm else 0,
                    space_to_depth=s2d,
                    macs=cost.macs,
                    vector_ops=cost.vector_ops,
                    params_bytes=cost.params_bytes,
                    input_bytes=cost.input_bytes,
                    output_bytes=cost.output_bytes,
                    simd=_vector_simd(layer.op) if layer.op else 1,
                    fusable=fusable,
                    pays_launch=has_gemm or not fusable,
                )
            )
        return cls(
            name=graph.name,
            layers=tuple(layers),
            total_macs=graph.total_macs(),
            total_params_bytes=graph.total_params_bytes(),
        )


# -- the simulator, as arrays --------------------------------------------------


def simulate_graph_arrays(
    spec: GraphSpec,
    arch: ArchArrays,
    peak_tops: np.ndarray,
    batch: np.ndarray,
    opt: OptimizationConfig,
) -> Dict[str, np.ndarray]:
    """``Simulator.run`` over arrays of design points.

    ``batch`` is a per-point array (the latency-bound regime resolves a
    different batch per point).  Returns the end-to-end metrics plus the
    activity factors the runtime power model consumes.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if np.any(batch < 1):
        raise MappingError(
            f"batch must be >= 1, got {float(np.min(batch)):g}"
        )
    freq = arch.freq_ghz
    shape = np.broadcast(arch.tu_rows, batch).shape
    zeros = np.zeros(shape, dtype=np.float64)

    weights_resident = spec.total_params_bytes <= (
        arch.mem_capacity_bytes * (1 - _ACTIVATION_MEM_SHARE)
    )
    activation_budget = arch.mem_capacity_bytes * _ACTIVATION_MEM_SHARE

    total_cycles = zeros.copy()
    tu_macs = zeros.copy()
    occupied_mac_cycles = zeros.copy()
    vector_ops_total = zeros.copy()
    mem_read_total = zeros.copy()
    mem_write_total = zeros.copy()
    noc_total = zeros.copy()
    offchip_total = zeros.copy()
    fusion_credit = zeros.copy()

    for layer in spec.layers:
        vector_ops = layer.vector_ops * batch
        layer_offchip = np.where(
            weights_resident, 0.0, float(layer.params_bytes)
        )
        working_set = (layer.input_bytes + layer.output_bytes) * batch
        layer_offchip = layer_offchip + 2.0 * np.maximum(
            0.0, working_set - activation_budget
        )

        if layer.has_gemm:
            m = layer.gemm_m * batch
            k = float(layer.gemm_k)
            if layer.space_to_depth:
                factor = _FOLD * _FOLD
                m = np.maximum(1.0, np.floor_divide(m, factor))
                k = k * factor
            mapping = map_weight_stationary_arrays(
                m, k, layer.gemm_n, arch, opt
            )
            vector_ops = vector_ops + mapping["merge_vector_ops"]
            vu_cycles = np.ceil(
                mapping["merge_vector_ops"]
                / np.maximum(arch.vu_lanes_total, 1)
                + layer.vector_ops
                * batch
                / np.maximum(arch.vu_lanes_total * _POINTWISE_SIMD, 1)
            )
            bound_list = [
                mapping["compute_cycles"],
                vu_cycles,
                _to_cycles(
                    mapping["mem_read_bytes"], arch.mem_read_gbps, freq
                ),
                _to_cycles(
                    mapping["mem_write_bytes"], arch.mem_write_gbps, freq
                ),
                _to_cycles(layer_offchip, arch.offchip_gbps, freq),
                _to_cycles(mapping["noc_bytes"], arch.noc_gbps, freq),
            ]
            noc_total = noc_total + mapping["noc_bytes"]
            mem_read_total = mem_read_total + mapping["mem_read_bytes"]
            mem_write_total = mem_write_total + mapping["mem_write_bytes"]
            tu_macs = tu_macs + mapping["useful_macs"]
            occupied_mac_cycles = (
                occupied_mac_cycles + mapping["occupied_mac_cycles"]
            )
        else:
            vu_cycles = np.ceil(
                vector_ops / np.maximum(arch.vu_lanes_total * layer.simd, 1)
            )
            if layer.fusable:
                consumed = np.minimum(vu_cycles, fusion_credit)
                fusion_credit = fusion_credit - consumed
                vu_cycles = vu_cycles - consumed
            reads = (layer.input_bytes + layer.params_bytes) * batch
            writes = layer.output_bytes * batch
            bound_list = [
                vu_cycles,
                _to_cycles(reads, arch.mem_read_gbps, freq),
                _to_cycles(writes, arch.mem_write_gbps, freq),
                _to_cycles(layer_offchip, arch.offchip_gbps, freq),
            ]
            mem_read_total = mem_read_total + reads
            mem_write_total = mem_write_total + writes

        if opt.double_buffering:
            cycles = bound_list[0]
            for bound in bound_list[1:]:
                cycles = np.maximum(cycles, bound)
        else:
            movement = zeros.copy()
            non_compute = (
                bound_list[1:] if layer.has_gemm else bound_list
            )
            for bound in non_compute:
                movement = movement + bound
            compute = bound_list[0] if layer.has_gemm else zeros
            cycles = compute + movement
        if layer.pays_launch:
            cycles = cycles + opt.layer_launch_cycles
        if layer.has_gemm:
            fusion_credit = np.maximum(0.0, cycles - vu_cycles)
        elif not layer.fusable:
            fusion_credit = zeros.copy()
        offchip_total = offchip_total + layer_offchip
        vector_ops_total = vector_ops_total + vector_ops
        total_cycles = total_cycles + np.maximum(cycles, 1.0)

    latency_s = total_cycles / (freq * GIGA)
    total_macs = spec.total_macs * batch
    achieved_tops = np.where(
        latency_s > 0,
        total_macs * OPS_PER_MAC / np.where(latency_s > 0, latency_s, 1.0)
        / 1e12,
        0.0,
    )
    throughput_fps = np.where(
        latency_s > 0,
        batch / np.where(latency_s > 0, latency_s, 1.0),
        0.0,
    )
    utilization = np.where(
        peak_tops > 0,
        achieved_tops / np.where(peak_tops > 0, peak_tops, 1.0),
        0.0,
    )

    cycles_floor = np.maximum(total_cycles, 1.0)
    window = np.maximum(latency_s, 1e-12)
    tu_util = np.minimum(
        tu_macs / (arch.macs_per_cycle * cycles_floor), 1.0
    )
    vu_util = np.minimum(
        vector_ops_total / (arch.vu_lanes_total * cycles_floor), 1.0
    )
    occupancy = np.minimum(
        occupied_mac_cycles / (arch.macs_per_cycle * cycles_floor), 1.0
    )

    return {
        "total_cycles": total_cycles,
        "latency_s": latency_s,
        "latency_ms": latency_s * 1e3,
        "throughput_fps": throughput_fps,
        "achieved_tops": achieved_tops,
        "utilization": utilization,
        "tu_utilization": tu_util,
        "tu_occupancy": np.maximum(occupancy, tu_util),
        "vu_utilization": vu_util,
        "su_activity": np.minimum(0.2 + 0.3 * tu_util, 1.0),
        "mem_read_gbps": mem_read_total / window / GIGA,
        "mem_write_gbps": mem_write_total / window / GIGA,
        "noc_gbps": noc_total / window / GIGA,
        "offchip_gbps": offchip_total / window / GIGA,
    }


# -- runtime power, as arrays --------------------------------------------------


def runtime_power_arrays(
    chip: Chip,
    ctx: ModelContext,
    arch: ArchArrays,
    grid: Dict[str, np.ndarray],
    noc_energy_per_byte_pj: np.ndarray,
    activity: Dict[str, np.ndarray],
) -> np.ndarray:
    """``runtime_power(...).total_w`` over arrays of design points.

    ``chip`` is the substrate's array-valued chip: the per-active-cycle
    energies come from its broadcasting unit models.  Components
    accumulate in the scalar dict-insertion order (tensor units, vector
    units, VReg, scalar units, Mem, NoC, off-chip), with the NoC term
    present only on multi-core points — the same two float summation
    orders the scalar walk produces.
    """
    freq = ctx.freq_ghz
    core = chip.core
    overhead = calibration.CLOCK_NETWORK_OVERHEAD

    per_tu = core.tensor_unit.energy_per_active_cycle_pj(ctx)
    count = arch.cores * chip.config.core.tensor_units
    active = dynamic_power_w(per_tu, freq) * activity["tu_utilization"]
    fill = (
        dynamic_power_w(per_tu, freq)
        * _FILL_ENERGY_FRACTION
        * np.maximum(
            activity["tu_occupancy"] - activity["tu_utilization"], 0.0
        )
    )
    comp_tu = count * (active + fill)

    per_vu = core.vector_unit.energy_per_active_cycle_pj(ctx)
    comp_vu = (
        arch.cores
        * dynamic_power_w(per_vu, freq)
        * activity["vu_utilization"]
    )

    per_vreg = core.vreg.energy_per_active_cycle_pj(ctx)
    effective_vreg = np.maximum(
        activity["tu_utilization"], activity["vu_utilization"]
    )
    comp_vreg = (
        arch.cores * dynamic_power_w(per_vreg, freq) * effective_vreg
    )

    per_su = (
        core.scalar_unit.energy_per_active_cycle_pj(ctx)
        if core.scalar_unit is not None
        else 0.0
    )
    comp_su = (
        arch.cores
        * dynamic_power_w(per_su, freq)
        * activity["su_activity"]
    )

    block = grid["mem_block_bytes"]
    read_rate_ghz = activity["mem_read_gbps"] / block
    write_rate_ghz = activity["mem_write_gbps"] / block
    comp_mem = (
        read_rate_ghz * grid["mem_read_energy_pj"]
        + write_rate_ghz * grid["mem_write_energy_pj"]
    ) * 1e-3 * overhead

    comp_noc = activity["noc_gbps"] * noc_energy_per_byte_pj * 1e-3

    leakage = grid["leakage_w"].copy()
    interface_w = 0.0
    controller = chip.memory_controller()
    if controller is not None:
        interface_w = (
            activity["offchip_gbps"] * controller.energy_per_byte_pj() * 1e-3
        )
        device_rated = controller.device_power_w()
        if device_rated > 0:
            peak_gbps = max(chip.config.offchip_bandwidth_gbps, 1e-9)
            duty = np.minimum(activity["offchip_gbps"] / peak_gbps, 1.0)
            interface_w = interface_w + device_rated * (
                _DRAM_IDLE_FRACTION + (1.0 - _DRAM_IDLE_FRACTION) * duty
            )
            leakage = leakage - device_rated

    partial = 0.0 + comp_tu + comp_vu + comp_vreg + comp_su + comp_mem
    dynamic = np.where(
        arch.multi,
        (partial + comp_noc) + interface_w,
        partial + interface_w,
    )
    return dynamic + np.maximum(leakage, 0.0)


# -- workload evaluation (the batched ``evaluate_point`` inner loop) -----------


@dataclass(frozen=True)
class BatchOutcome:
    """Arrays for one (batch regime, workload) across all points."""

    workload: str
    batch_spec: object
    batch: np.ndarray
    achieved_tops: np.ndarray
    utilization: np.ndarray
    latency_ms: np.ndarray
    runtime_power_w: np.ndarray

    def regime(self, index: int) -> str:
        """The regime label for one point (mirrors ``evaluate_point``)."""
        if self.batch_spec == "latency-bound":
            return "latency-bound"
        return f"bs={int(self.batch[index])}"


def latency_limited_batch_arrays(
    spec: GraphSpec,
    arch: ArchArrays,
    peak_tops: np.ndarray,
    opt: OptimizationConfig,
    slo_ms: float = DEFAULT_LATENCY_SLO_MS,
    candidates: Tuple[int, ...] = BATCH_CANDIDATES,
) -> np.ndarray:
    """``Simulator.latency_limited_batch`` per point, as an array."""
    shape = np.asarray(arch.tu_rows).shape
    best = np.full(shape, float(candidates[0]), dtype=np.float64)
    for candidate in sorted(candidates):
        result = simulate_graph_arrays(
            spec,
            arch,
            peak_tops,
            np.full(shape, float(candidate), dtype=np.float64),
            opt,
        )
        best = np.where(
            result["latency_ms"] <= slo_ms, float(candidate), best
        )
    return best


def simulate_workloads(
    sub: TechSubstrate,
    grid: Dict[str, np.ndarray],
    x: np.ndarray,
    n: np.ndarray,
    tx: np.ndarray,
    ty: np.ndarray,
    workloads: Sequence[Tuple[str, Graph]],
    batches: Sequence[object],
    latency_slo_ms: float = DEFAULT_LATENCY_SLO_MS,
    opt: Optional[OptimizationConfig] = None,
    specs: Optional[Sequence[Tuple[str, GraphSpec]]] = None,
) -> List[BatchOutcome]:
    """Evaluate every (batch regime, workload) pair over all points.

    The outer loops mirror ``evaluate_point`` exactly — batch regimes
    outer, workloads inner — so the flattened outcome order matches the
    scalar path's ``DesignPointResult.outcomes``.  Callers that already
    flattened their graphs (the estimator's cache-key construction does)
    pass ``specs`` to skip re-deriving them from ``workloads``.
    """
    opt = opt if opt is not None else OptimizationConfig.all_on()
    x = np.asarray(x, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    cores = tx * ty
    arch = ArchArrays.of(sub, grid, x, n, cores)
    peak_tops = grid["peak_tops"]
    chip = sub.chip(x, n, tx, ty)
    noc_epb = np.zeros(x.shape, dtype=np.float64)
    for points, noc in chip.nocs(grid["core_area_mm2"]):
        noc_epb = np.where(points, noc.energy_per_byte_pj(sub.ctx), noc_epb)

    if specs is None:
        specs = [
            (name, GraphSpec.of(graph, opt)) for name, graph in workloads
        ]
    outcomes: List[BatchOutcome] = []
    for batch_spec in batches:
        for name, spec in specs:
            if batch_spec == "latency-bound":
                batch = latency_limited_batch_arrays(
                    spec, arch, peak_tops, opt, slo_ms=latency_slo_ms
                )
            else:
                batch = np.full(
                    x.shape, float(int(batch_spec)), dtype=np.float64
                )
            result = simulate_graph_arrays(
                spec, arch, peak_tops, batch, opt
            )
            power = runtime_power_arrays(
                chip, sub.ctx, arch, grid, noc_epb, result
            )
            outcomes.append(
                BatchOutcome(
                    workload=name,
                    batch_spec=batch_spec,
                    batch=batch,
                    achieved_tops=result["achieved_tops"],
                    utilization=result["utilization"],
                    latency_ms=result["latency_ms"],
                    runtime_power_w=power,
                )
            )
    return outcomes
