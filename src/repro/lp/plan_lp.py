"""Eq. 3 of the paper: the data-level partitioning LP.

Builds and solves the linear program that StepWise-Adapt uses for its
model-based initialization step.  Variables are the *effective load
factors* ``e_i = prod_{j<=i} p_j`` (with ``e_0 = 1``), which linearize
the non-convex Eq. 2:

    minimize    sum_i R_{i-1} * (e_{i-1} - e_i)          (drained records)
    subject to  sum_i R_{i-1} * c_i * e_i <= C / N_r     (compute budget)
                0 <= e_i <= e_{i-1},   e_0 = 1

where ``R_k = prod_{j<=k} r_j`` is the cumulative relay ratio (``r_0=1``),
``c_i`` the per-record compute cost of operator ``i`` and ``C/N_r`` the
compute budget per injected record.

An optional ``byte_weights`` vector switches the objective to *drained
bytes* (record size at each proxy x drain-path serialization overhead),
which models the network more faithfully; the paper's formulation counts
records, so that remains the default.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lp.simplex import linprog

_EPS = 1e-9


@dataclass(frozen=True)
class PlanSolution:
    """LP output mapped back to the runtime's vocabulary.

    Attributes:
        e: effective load factors, one per operator (``e_0 = 1`` implicit).
        p: per-proxy load factors recovered via ``p_i = e_i / e_{i-1}``.
        drained_frac: predicted drained records per injected record.
        compute_per_record: predicted compute usage per injected record.
    """

    e: np.ndarray
    p: np.ndarray
    drained_frac: float
    compute_per_record: float


def cumulative_relay(relay_ratios: np.ndarray) -> np.ndarray:
    """``R_k = prod_{j<=k} r_j`` for k = 0..M-1 (input side of op k+1)."""
    r = np.asarray(relay_ratios, dtype=float)
    return np.concatenate(([1.0], np.cumprod(r)[:-1]))


def e_to_p(e: np.ndarray) -> np.ndarray:
    """Recover per-proxy load factors from effective load factors.

    Where an upstream proxy drains everything (``e_{i-1} ~ 0``) the
    downstream ``p`` is unconstrained; 0.0 is chosen so that a stale plan
    never over-subscribes compute if records unexpectedly reappear.
    """
    e = np.asarray(e, dtype=float)
    prev = np.concatenate(([1.0], e[:-1]))
    p = np.where(prev > _EPS, e / np.maximum(prev, _EPS), 0.0)
    return np.clip(p, 0.0, 1.0)


def solve_plan(
    relay_ratios: np.ndarray,
    costs: np.ndarray,
    budget_per_record: float,
    byte_weights: np.ndarray | None = None,
) -> PlanSolution:
    """Solve the Eq. 3 LP for one query pipeline on one data source.

    Args:
        relay_ratios: ``r_i`` per operator (output/input record count),
            each in [0, 1] per the paper's constraint.
        costs: ``c_i`` per-record compute cost per operator (seconds,
            or any unit consistent with ``budget_per_record``).
        budget_per_record: ``C / N_r`` — compute budget available per
            record injected into the query during an epoch.
        byte_weights: optional per-proxy weight ``w_i`` (bytes x drain
            overhead of a record arriving at operator ``i``); switches
            the objective from drained records to drained bytes.

    Returns:
        PlanSolution with optimal ``e``, recovered ``p`` and predictions.
    """
    r = np.asarray(relay_ratios, dtype=float)
    c = np.asarray(costs, dtype=float)
    if r.shape != c.shape or r.ndim != 1:
        raise ValueError("relay_ratios and costs must be 1-D and same length")
    M = r.shape[0]
    if M == 0:
        return PlanSolution(
            e=np.zeros(0), p=np.zeros(0), drained_frac=0.0, compute_per_record=0.0
        )
    if np.any(r < -_EPS) or np.any(r > 1 + _EPS):
        raise ValueError("relay ratios must lie in [0, 1]")
    if np.any(c < -_EPS):
        raise ValueError("costs must be non-negative")
    if budget_per_record < 0:
        raise ValueError("budget must be non-negative")

    R = cumulative_relay(r)  # R[i-1] multiplies e_i terms (0-indexed: R[i])
    w = R if byte_weights is None else R * np.asarray(byte_weights, dtype=float)

    # Objective sum_i w_i (e_{i-1} - e_i) = const - sum over coefficient
    # collection: coefficient of e_i is (w_{i+1} - w_i) for i < M-1 and
    # -w_{M-1} for the last (0-indexed).
    obj = np.zeros(M)
    for i in range(M):
        obj[i] -= w[i]
        if i + 1 < M:
            obj[i] += w[i + 1]

    # Budget row + chain rows (e_1 <= 1, e_i - e_{i-1} <= 0).
    A_ub = np.zeros((1 + M, M))
    b_ub = np.zeros(1 + M)
    A_ub[0] = R * c
    b_ub[0] = budget_per_record
    A_ub[1, 0] = 1.0
    b_ub[1] = 1.0
    for i in range(1, M):
        A_ub[1 + i, i] = 1.0
        A_ub[1 + i, i - 1] = -1.0
    # e = 0 is always feasible, so an LPError from linprog is a genuine bug.
    res = linprog(obj, A_ub=A_ub, b_ub=b_ub)
    e = np.clip(res.x, 0.0, 1.0)
    # Enforce monotonicity against round-off.
    for i in range(1, M):
        e[i] = min(e[i], e[i - 1])
    prev = np.concatenate(([1.0], e[:-1]))
    drained = float(np.sum(w * (prev - e))) if byte_weights is not None else float(
        np.sum(R * (prev - e))
    )
    compute = float(np.sum(R * c * e))
    return PlanSolution(e=e, p=e_to_p(e), drained_frac=drained, compute_per_record=compute)


def brute_force_plan(
    relay_ratios: np.ndarray,
    costs: np.ndarray,
    budget_per_record: float,
    grid: int = 20,
    byte_weights: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Exhaustive grid search over ``e`` for verifying ``solve_plan``.

    Enumerates monotone ``e`` vectors on a uniform grid and returns the
    best feasible one with its drained objective. Exponential in M — use
    only in tests with small M/grid.
    """
    r = np.asarray(relay_ratios, dtype=float)
    c = np.asarray(costs, dtype=float)
    M = r.shape[0]
    R = cumulative_relay(r)
    w = R if byte_weights is None else R * np.asarray(byte_weights, dtype=float)
    levels = np.linspace(0.0, 1.0, grid + 1)
    best_e = np.zeros(M)
    best_obj = float(np.sum(w))  # e = 0 baseline: everything drains at proxy 1.

    def rec(i: int, prefix: list[float]) -> None:
        nonlocal best_e, best_obj
        if i == M:
            e = np.array(prefix)
            if float(np.sum(R * c * e)) > budget_per_record + 1e-12:
                return
            prev = np.concatenate(([1.0], e[:-1]))
            obj = float(np.sum(w * (prev - e)))
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_e = e
            return
        cap = prefix[-1] if prefix else 1.0
        for v in levels:
            if v <= cap + 1e-12:
                rec(i + 1, prefix + [float(v)])

    rec(0, [])
    return best_e, best_obj
