"""The paper's contribution: application-attuned tiered-memory management.

Exposes the Tiered Memory Manager (the IMME policy), Algorithm 1
(allocation), Algorithm 2 (replacement), the intelligent page-movement
daemon, the flag predictor, page heatmaps, shared-memory management, and
the Table I ``allocate_TM``/``free_TM`` API.

Attributes are resolved lazily (PEP 562): :mod:`repro.policies` imports
:mod:`repro.core.flags` while :mod:`repro.core.manager` imports
:mod:`repro.policies`, and lazy resolution is what keeps that dependency
diamond acyclic at import time.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "AllocationPlan": ".allocation",
    "EvictableMap": ".allocation",
    "TierAllocator": ".allocation",
    "bandwidth_fractions": ".allocation",
    "RegionHandle": ".api",
    "TieredMemoryClient": ".api",
    "BACKEND_ARENA": ".arena",
    "NodeArena": ".arena",
    "resolve_backend": ".arena",
    "MemFlag": ".flags",
    "normalize_flags": ".flags",
    "parse_flags": ".flags",
    "HeatmapConfig": ".heatmap",
    "PageHeatmap": ".heatmap",
    "hot_mask": ".heatmap",
    "idle_fraction": ".heatmap",
    "TieredMemoryManager": ".manager",
    "classify_tiers": ".manager",
    "IntelligentPageMovement": ".movement",
    "MovementConfig": ".movement",
    "ExecutionLogStore": ".predictor",
    "ExecutionRecord": ".predictor",
    "FlagPredictor": ".predictor",
    "flag_sizes_from_heatmap": ".predictor",
    "PageReplacementPolicy": ".replacement",
    "is_protected": ".replacement",
    "SharedMemoryManager": ".sharing",
    "SharedRegionHandle": ".sharing",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(module, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static typing only
    from .allocation import (  # noqa: F401
        AllocationPlan,
        EvictableMap,
        TierAllocator,
        bandwidth_fractions,
    )
    from .api import RegionHandle, TieredMemoryClient  # noqa: F401
    from .arena import (  # noqa: F401
        BACKEND_ARENA,
        NodeArena,
        resolve_backend,
    )
    from .flags import MemFlag, normalize_flags, parse_flags  # noqa: F401
    from .heatmap import HeatmapConfig, PageHeatmap, hot_mask, idle_fraction  # noqa: F401
    from .manager import TieredMemoryManager, classify_tiers  # noqa: F401
    from .movement import IntelligentPageMovement, MovementConfig  # noqa: F401
    from .predictor import (  # noqa: F401
        ExecutionLogStore,
        ExecutionRecord,
        FlagPredictor,
        flag_sizes_from_heatmap,
    )
    from .replacement import PageReplacementPolicy, is_protected  # noqa: F401
    from .sharing import SharedMemoryManager, SharedRegionHandle  # noqa: F401
