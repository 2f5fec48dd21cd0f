"""Analysis helpers: replication statistics."""

from .stats import Comparison, ReplicationResult, compare, relative_improvement, replicate

__all__ = [
    "Comparison",
    "ReplicationResult",
    "compare",
    "relative_improvement",
    "replicate",
]
