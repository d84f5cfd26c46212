"""Single-task assignment solvers (Section III): Approx, OPT, Rand.

``solve_sqm_approx`` is Algorithm 1 verbatim: at each step it *fully*
recomputes the quality of ``T_cur ∪ {x}`` for every candidate slot ``x``
(no k-NN reuse, no pruning) — the paper's O(m³ log m) baseline against which
``Approx*`` (:mod:`repro.core.tree_index`) is measured.  The single-best-
subtask fallback ``T'`` of lines 3/10 is kept, giving the (1−1/√e) guarantee
of budgeted submodular greedy [Krause & Guestrin 2005].

``solve_sqm_opt`` traverses the solution space exactly (feasible for small m).
``solve_sqm_rand`` randomly executes assignable subtasks with their nearest
worker until the budget is exhausted (the paper's Rand baseline).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.quality import p_vector, quality_from_p

EPS = 1e-12


def gain_per_cost(gain: float, cost: float) -> float:
    """The greedy heuristic Δq/cost.

    A zero-cost candidate with positive gain ranks +inf; the solvers' slot-
    ordered comparisons send ties among +inf to the lowest slot.
    """
    if cost > 0.0:
        return gain / cost
    return math.inf if gain > 0.0 else 0.0


@dataclass
class Assignment:
    """Result of a single-task solve: which slots got which workers."""

    task_id: int
    exec_slots: list[int]
    workers: list[int]
    cost: float
    quality: float
    stats: dict = field(default_factory=dict)


def _quality_of(exec_slots: list[int], m: int, k: int) -> float:
    return quality_from_p(p_vector(np.sort(np.asarray(exec_slots, np.int64)), m, k))


def solve_sqm_approx(ctx: TaskContext, budget: float, k: int) -> Assignment:
    """Algorithm 1 (Approx): greedy by Δq/cost, no reuse or pruning."""
    m = ctx.m
    costs = ctx.base_costs()
    cand = np.nonzero(np.isfinite(costs))[0]
    stats = {"candidate_evals": 0, "interp_ops": 0, "steps": 0}

    # Line 3: the best affordable single subtask T'.
    best_single, best_single_q = None, -np.inf
    for x in cand:
        if costs[x] <= budget:
            qx = _quality_of([int(x)], m, k)
            stats["candidate_evals"] += 1
            stats["interp_ops"] += m
            if qx > best_single_q + EPS or (
                abs(qx - best_single_q) <= EPS and (best_single is None or x < best_single)
            ):
                best_single, best_single_q = int(x), qx

    exec_slots: list[int] = []
    spent = 0.0
    q_cur = 0.0
    remaining = set(int(x) for x in cand)
    while True:
        afford = [x for x in remaining if costs[x] <= budget - spent]
        if not afford:
            break
        best_x, best_h, best_q = None, -np.inf, None
        for x in sorted(afford):
            q_new = _quality_of(exec_slots + [x], m, k)
            stats["candidate_evals"] += 1
            stats["interp_ops"] += m
            h = gain_per_cost(q_new - q_cur, float(costs[x]))
            if h > best_h + EPS:
                best_x, best_h, best_q = x, h, q_new
        if best_x is None or best_q is None:
            break
        exec_slots.append(best_x)
        remaining.discard(best_x)
        spent += costs[best_x]
        q_cur = best_q
        stats["steps"] += 1

    # Line 10: return the better of T_cur and T'.
    if best_single is not None and best_single_q > q_cur + EPS:
        exec_slots, spent, q_cur = [best_single], float(costs[best_single]), best_single_q
    exec_slots = sorted(exec_slots)
    return Assignment(
        task_id=ctx.task_id,
        exec_slots=exec_slots,
        workers=[ctx.worker_at_rank(j, 0) for j in exec_slots],
        cost=float(spent),
        quality=float(q_cur),
        stats=stats,
    )


def solve_sqm_rand(
    ctx: TaskContext, budget: float, k: int, *, seed: int = 0
) -> Assignment:
    """Rand baseline: random assignable subtasks → nearest worker, to budget."""
    m = ctx.m
    costs = ctx.base_costs()
    cand = np.nonzero(np.isfinite(costs))[0]
    g = np.random.default_rng(seed)
    order = g.permutation(cand)
    exec_slots: list[int] = []
    spent = 0.0
    for x in order:
        if spent + costs[x] <= budget:
            exec_slots.append(int(x))
            spent += float(costs[x])
    exec_slots = sorted(exec_slots)
    return Assignment(
        task_id=ctx.task_id,
        exec_slots=exec_slots,
        workers=[ctx.worker_at_rank(j, 0) for j in exec_slots],
        cost=spent,
        quality=_quality_of(exec_slots, m, k),
        stats={},
    )


def solve_sqm_opt(ctx: TaskContext, budget: float, k: int) -> Assignment:
    """OPT: exact traversal of all slot subsets within budget.

    Exponential — intended for m ≤ ~18 (quality-comparison experiments and
    approximation-ratio tests only).
    """
    m = ctx.m
    if m > 20:
        raise ValueError(f"solve_sqm_opt is exponential; m={m} is too large")
    costs = ctx.base_costs()
    cand = [int(x) for x in np.nonzero(np.isfinite(costs))[0] if costs[x] <= budget]
    best_set: tuple[int, ...] = ()
    best_q, best_cost = 0.0, 0.0
    for r in range(1, len(cand) + 1):
        for combo in itertools.combinations(cand, r):
            c = float(sum(costs[list(combo)]))
            if c > budget:
                continue
            q = _quality_of(list(combo), m, k)
            if q > best_q + EPS:
                best_set, best_q, best_cost = combo, q, c
    exec_slots = sorted(best_set)
    return Assignment(
        task_id=ctx.task_id,
        exec_slots=exec_slots,
        workers=[ctx.worker_at_rank(j, 0) for j in exec_slots],
        cost=best_cost,
        quality=best_q,
        stats={},
    )
