"""Bandwidth-contention model.

Colocated workflows on a node share each tier's bandwidth.  We use
**max-min fairness** (progressive filling / water-filling): every demander
gets capacity/n, and any demand smaller than its share returns the surplus
to the pool — the classical model of fair memory-controller arbitration and
the behaviour the paper's Fig. 1 contention results reflect.

All functions are vectorised.  The per-node rate recomputation calls
:func:`kernel_allocation` with the ``(n_tasks, n_tiers)`` demand matrix it
computed itself, so that path validates nothing; :func:`fair_share` and
:func:`allocate_bandwidth` are the checked public entries, and
:func:`fair_share` is the one-column reference the kernel is pinned to.
"""

from __future__ import annotations

import numpy as np

from ..util.validation import require

__all__ = ["fair_share", "allocate_bandwidth"]


def fair_share(capacity: float, demands: np.ndarray) -> np.ndarray:
    """Max-min fair split of ``capacity`` among ``demands``.

    Parameters
    ----------
    capacity:
        Total resource available (bytes/s).
    demands:
        1-D non-negative demand vector.

    Returns
    -------
    ndarray
        Allocation vector: ``alloc[i] <= demands[i]``, ``sum(alloc) <=
        capacity``, and no task that is below its demand could receive more
        without taking from a task with a smaller allocation.

    Notes
    -----
    Implemented by sorting demands and progressively filling — O(n log n)
    with pure-NumPy inner work, per the vectorisation idioms in the
    hpc-parallel guides.
    """
    d = np.asarray(demands, dtype=np.float64)
    require(bool(np.all(d >= 0)), "demands must be non-negative")
    require(capacity >= 0, "capacity must be non-negative")
    if d.size == 0 or capacity <= 0:
        return np.zeros(d.size, dtype=np.float64)
    if d.sum() <= capacity:
        return d.copy()
    return _fill(float(capacity), d)


def _fill(capacity: float, d: np.ndarray) -> np.ndarray:
    """Progressive filling of a contended column (``d.sum() > capacity``)."""
    n = d.size
    order = np.argsort(d, kind="stable")
    sorted_d = d[order]
    # Satisfy the smallest demands outright while the equal split of what
    # is left covers them; the first demand it does not cover, and every
    # larger one, shares the remainder equally.
    prior = np.empty(n)  # capacity spent on the demands before each one
    prior[0] = 0.0
    np.cumsum(sorted_d[:-1], out=prior[1:])
    saturated = sorted_d <= (capacity - prior) / np.arange(n, 0, -1)
    first_unsat = int(saturated.argmin())
    if not saturated[first_unsat]:
        remaining = capacity - float(sorted_d[:first_unsat].sum())
        share = remaining / (n - first_unsat)
        sorted_d[first_unsat:] = np.minimum(sorted_d[first_unsat:], share)
    alloc = np.empty(n)
    alloc[order] = sorted_d
    return alloc


def allocate_bandwidth(capacities: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """Per-tier max-min fair bandwidth for a set of colocated tasks.

    Parameters
    ----------
    capacities:
        ``float64[n_tiers]`` — each tier's attainable bandwidth on this node.
    demands:
        ``float64[n_tasks, n_tiers]`` — each task's desired throughput from
        each tier (derived from its access-weight distribution and demanded
        aggregate bandwidth).

    Returns
    -------
    ndarray
        ``float64[n_tasks, n_tiers]`` achieved throughput, fair per tier:
        column ``t`` is ``fair_share(capacities[t], demands[:, t])``.
    """
    demands = np.asarray(demands, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    require(demands.ndim == 2, "demands must be a 2-D (tasks x tiers) matrix")
    require(
        capacities.shape == (demands.shape[1],),
        "capacities length must equal the tier dimension of demands",
    )
    require(bool(np.all(demands >= 0)), "demands must be non-negative")
    # an all-zero column is never split, so only a demanded tier needs a
    # non-negative capacity (fair_share's rule, column by column)
    demanded = demands.any(axis=0)
    require(bool(np.all(capacities[demanded] >= 0)), "capacity must be non-negative")
    return kernel_allocation(capacities, demands)


def kernel_allocation(capacities: np.ndarray, demands: np.ndarray) -> np.ndarray:
    """:func:`allocate_bandwidth` without its checks, for the rate kernel's
    own non-negative ``float64`` demands.

    Each tier column is summed once, as a row of one contiguous transposed
    copy: numpy sums a row pairwise, as ``fair_share``'s ``d.sum()`` sums a
    column, so the ``sum <= capacity`` test is the same float comparison.
    Uncontended columns are copied in one pass; only the contended ones
    run the progressive fill.
    """
    cols = np.ascontiguousarray(demands.T)
    totals = cols.sum(axis=1)
    out = np.where(totals <= capacities, demands, 0.0)
    for t in np.flatnonzero((totals > capacities) & (capacities > 0)).tolist():
        out[:, t] = _fill(float(capacities[t]), cols[t])
    return out
