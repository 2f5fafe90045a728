"""The preset family a vectorized grid varies, at one model context.

A Table I sweep varies only ``(X, N, T_x, T_y)``; everything else — the
technology node, the clock, the datatypes, and whole blocks whose
configuration never changes (instruction fetch, scalar unit, memory
controller, PCIe, ICI, DMA) — is fixed for a given
:class:`~repro.arch.component.ModelContext` and *preset family*.
:class:`TechSubstrate` holds the family's template chip and builds from it
one chip whose point-dependent fields are arrays
(:meth:`TechSubstrate.chip`).  The architecture models broadcast over
those fields, so :mod:`repro.batch.kernels` evaluates a whole grid through
the same ``estimate`` code the scalar path runs.

Two families are modeled: ``"datacenter"`` (the int8 inference preset of
Table I) and ``"training"`` (the bf16/fp32 TPU-v2-class preset).  Each
carries its own template chip and dependent-parameter rules (lane count,
Mem block/capacity scaling).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

import numpy as np

from repro.arch.chip import Chip
from repro.arch.component import ModelContext
from repro.config.presets import (
    datacenter_design_point,
    datacenter_training_point,
)
from repro.errors import ConfigurationError
from repro.units import MiB

#: The default preset family (the original vector-backend scope).
DEFAULT_FAMILY = "datacenter"

#: Preset factory per family, probed at the smallest template point.
FAMILY_BUILDERS: Dict[str, Callable[[int, int, int, int], Chip]] = {
    "datacenter": datacenter_design_point,
    "training": datacenter_training_point,
}

#: Dependent-parameter rules of the presets.  The template fixes every
#: *constant*; these capture how the presets scale the VU lane count (for
#: families with an explicit VU) and the Mem slice with the TU length ``X``
#: and the core count: ``lanes = max(lane_mult * X, lane_floor)``,
#: ``block = max(block_mult * X, block_floor)``,
#: ``capacity = max(pool // cores, floor)``.
_FAMILY_RULES: Dict[str, Dict[str, int]] = {
    "datacenter": {
        "block_mult": 1,
        "block_floor": 32,
        "mem_pool_bytes": 32 * MiB,
        "mem_floor_bytes": 64 * 1024,
    },
    "training": {
        "lane_mult": 2,
        "lane_floor": 32,
        "block_mult": 2,
        "block_floor": 64,
        "mem_pool_bytes": 64 * MiB,
        "mem_floor_bytes": 256 * 1024,
    },
}


@dataclass(frozen=True)
class TechSubstrate:
    """One preset family at one context: the template the grid varies.

    Attributes:
        ctx: The model context every point shares.
        family: The preset family (``"datacenter"`` or ``"training"``).
        template: The family's smallest preset chip; every field except the
            point-dependent ones is shared by the whole grid.
    """

    ctx: ModelContext
    family: str
    template: Chip

    @classmethod
    def build(
        cls, ctx: ModelContext, family: str = DEFAULT_FAMILY
    ) -> "TechSubstrate":
        """The substrate for ``(ctx, family)``."""
        builder = FAMILY_BUILDERS.get(family)
        if builder is None or family not in _FAMILY_RULES:
            raise ConfigurationError(
                f"unknown vector-backend preset family {family!r}; "
                f"expected one of {sorted(FAMILY_BUILDERS)}"
            )
        return cls(ctx=ctx, family=family, template=builder(4, 1, 1, 1))

    def chip(self, x, n, tx, ty) -> Chip:
        """The family's chip with array-valued ``(X, N, T_x, T_y)``.

        The TU length, TU count and core grid are the point arrays; the VU
        lanes and the Mem slice follow the family's scaling rules.  The
        result is one :class:`~repro.arch.chip.Chip` whose models,
        evaluated under :func:`repro.arch.component.array_evaluation`,
        estimate every point at once.
        """
        rules = _FAMILY_RULES[self.family]
        x, n, tx, ty = (
            np.asarray(value, dtype=np.float64) for value in (x, n, tx, ty)
        )
        config = self.template.config
        core = config.core
        vu = core.vu
        if vu is not None:
            vu = replace(
                vu,
                lanes=np.maximum(rules["lane_mult"] * x, rules["lane_floor"]),
            )
        mem = replace(
            core.mem,
            capacity_bytes=np.maximum(
                np.floor_divide(rules["mem_pool_bytes"], tx * ty),
                rules["mem_floor_bytes"],
            ),
            block_bytes=np.maximum(
                rules["block_mult"] * x, rules["block_floor"]
            ),
        )
        core = replace(
            core,
            tu=replace(core.tu, rows=x, cols=x),
            tensor_units=n,
            vu=vu,
            mem=mem,
        )
        return Chip(replace(config, core=core, cores_x=tx, cores_y=ty))


_SUBSTRATES: Dict[Tuple[ModelContext, str], TechSubstrate] = {}


def substrate_for(
    ctx: ModelContext, family: str = DEFAULT_FAMILY
) -> TechSubstrate:
    """Build (or reuse) the substrate for ``(ctx, family)``.

    Substrates are cached per (context, family): a sweep calls this once
    per family it touches, and repeated sweeps in one process (CLI,
    benchmarks, tests) share the hoisted state.
    """
    key = (ctx, family)
    cached = _SUBSTRATES.get(key)
    if cached is None:
        cached = TechSubstrate.build(ctx, family)
        _SUBSTRATES[key] = cached
    return cached
