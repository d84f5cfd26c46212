"""STCC: spatiotemporal interpolation extension (paper Appendix C).

An unexecuted subtask ``τ_i^(j)`` may be interpolated *temporally* (k-NN
among task i's own executed slots, Eq 3) and *spatially* (k-NN among
subtasks executed at the same slot j by other tasks, Eq 13, normalized by
the spatial domain size — we use the domain diagonal so ρ_s ∈ [0, 1]).
The combined error ratio is the weighted sum ρ = w_s·ρ_s + w_t·ρ_t
(Eq 14, w_s + w_t = 1) and p = (1/m)(1 − ρ) (Eq 15).

``SApprox`` is the same greedy framework over q_sum with the combined
metric; ``Approx`` (temporal only) is the w_t = 1 special case.  The paper's
appendix text says "for Approx, the w_s is set to 1" — given "it does not do
spatial interpolation", that is read as w_t = 1 (an apparent typo).

Missing spatial neighbours pad with the domain diagonal, mirroring
footnote 2's temporal padding with m.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS, gain_per_cost
from repro.core.quality import knn_distances, partial_quality

__all__ = [
    "stcc_p_matrix",
    "stcc_quality",
    "StccResult",
    "solve_stcc_greedy",
    "solve_stcc_rand",
    "solve_stcc_opt",
]


def stcc_p_matrix(
    exec_sets: list[set[int]],
    locs: np.ndarray,
    m: int,
    k: int,
    w_s: float,
    w_t: float,
    diag: float,
) -> np.ndarray:
    """Finishing probabilities (|T| × m) under spatiotemporal interpolation."""
    n = len(exec_sets)
    rho_t = np.ones((n, m))
    for i, ex in enumerate(exec_sets):
        e = np.sort(np.asarray(list(ex), dtype=np.int64))
        d, _ = knn_distances(e, m, k, np.arange(m, dtype=np.int64))
        rho_t[i] = d.sum(axis=1) / (k * m)
    # Pairwise task distances, reused across slots.
    dmat = np.hypot(
        locs[:, 0][:, None] - locs[:, 0][None, :],
        locs[:, 1][:, None] - locs[:, 1][None, :],
    )
    rho_s = np.ones((n, m))
    for j in range(m):
        ej = [i for i in range(n) if j in exec_sets[i]]
        if not ej:
            continue
        d = dmat[:, ej].astype(np.float64)  # (n, |ej|)
        d_sorted = np.sort(d, axis=1)[:, :k]
        pad = max(0, k - d_sorted.shape[1])
        sums = d_sorted.sum(axis=1) + pad * diag
        rho_s[:, j] = np.clip(sums / (k * diag), 0.0, 1.0)
    rho = np.clip(w_s * rho_s + w_t * rho_t, 0.0, 1.0)
    p = (1.0 - rho) / m
    for i, ex in enumerate(exec_sets):
        if ex:
            p[i, np.asarray(sorted(ex), dtype=np.int64)] = 1.0 / m
    return np.clip(p, 0.0, None)


def stcc_quality(
    exec_sets: list[set[int]],
    locs: np.ndarray,
    m: int,
    k: int,
    w_s: float,
    w_t: float,
    diag: float,
) -> tuple[np.ndarray, float]:
    """Per-task qualities and their sum under the combined metric."""
    p = stcc_p_matrix(exec_sets, locs, m, k, w_s, w_t, diag)
    q = partial_quality(p).sum(axis=1)
    return q, float(q.sum())


@dataclass
class StccResult:
    """Outcome of an STCC multi-task solve."""

    exec_sets: list[set[int]]
    q_per_task: np.ndarray
    q_sum: float
    q_min: float
    total_cost: float
    stats: dict = field(default_factory=dict)


def _claim(
    ctxs: list[TaskContext],
    ranks: list[dict[int, int]],
    claimed: set[tuple[int, int]],
    i: int,
    slot: int,
) -> float:
    """Claim task i's current-rank worker at ``slot``; bump rivals."""
    r = ranks[i].get(slot, 0)
    worker = ctxs[i].worker_at_rank(slot, r)
    cost = ctxs[i].cost_at_rank(slot, r)
    claimed.add((worker, slot))
    for t, ctx in enumerate(ctxs):
        if t == i:
            continue
        rt = ranks[t].get(slot, 0)
        if ctx.worker_at_rank(slot, rt) != worker:
            continue
        while True:
            rt += 1
            w = ctx.worker_at_rank(slot, rt)
            if w == -1 or (w, slot) not in claimed:
                break
        ranks[t][slot] = rt
    return float(cost)


def _check_inputs(ctxs: list[TaskContext], k: int) -> None:
    """Reject inputs every STCC solver would otherwise fail on obscurely."""
    if not ctxs:
        raise ValueError("STCC solvers need at least one task")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def _p_cells(
    rho_s: np.ndarray,
    rho_t: np.ndarray,
    executed: np.ndarray,
    w_s: float,
    w_t: float,
    m: int,
) -> np.ndarray:
    """Eqs 14–15 cell by cell, in the same operation order as stcc_p_matrix."""
    rho = np.clip(w_s * rho_s + w_t * rho_t, 0.0, 1.0)
    p = (1.0 - rho) / m
    p[executed] = 1.0 / m
    return p


def _rho_s(knn: np.ndarray, found: int, k: int, diag: float) -> np.ndarray:
    """Spatial ρ from ascending neighbour distances on the last axis, of which
    the first ``found`` are real; the rest pad with ``diag`` (stcc_p_matrix)."""
    sums = knn[..., :found].sum(axis=-1) + (k - found) * diag
    return np.clip(sums / (k * diag), 0.0, 1.0)


def solve_stcc_greedy(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    w_s: float = 0.3,
    w_t: float = 0.7,
    domain: float,
) -> StccResult:
    """SApprox: greedy Δq_sum/cost with the spatiotemporal metric.

    Executing τ_i^(s) changes only task i's row of p (its temporal k-NN) and
    slot s's column (its spatial k-NN), so every candidate is scored by the
    delta of those cells, all candidates of a step in one numpy pass.  The
    k-NN distances are kept across steps.  Temporal distances are integers,
    so their sums are exact; spatial sums add the same sorted values in the
    same order as stcc_p_matrix, so p is bitwise the brute-force one.
    """
    _check_inputs(ctxs, k)
    n, m = len(ctxs), ctxs[0].m
    locs = np.array([[c.x, c.y] for c in ctxs])
    diag = float(domain * np.sqrt(2))
    dmat = np.hypot(
        locs[:, 0][:, None] - locs[:, 0][None, :],
        locs[:, 1][:, None] - locs[:, 1][None, :],
    )
    slots = np.arange(m)
    # Per (task, slot): k nearest executed-slot distances, padded with m.
    t_knn = np.full((n, m, k), float(m))
    t_sum = t_knn.sum(axis=2)
    # Per (slot, task): k nearest executing-task distances, padded with inf.
    s_knn = np.full((m, n, k), np.inf)
    n_exec = np.zeros(m, dtype=np.int64)  # tasks executed per slot
    executed = np.zeros((n, m), dtype=bool)
    rho_t = t_sum / (k * m)
    rho_s = np.ones((n, m))
    g_p = partial_quality(_p_cells(rho_s, rho_t, executed, w_s, w_t, m))
    ranks: list[dict[int, int]] = [dict() for _ in range(n)]
    claimed: set[tuple[int, int]] = set()
    spent = 0.0
    steps = evaluated = 0
    while True:
        cand_i, cand_s, cand_c = [], [], []
        for i in range(n):
            for slot in range(m):
                if executed[i, slot]:
                    continue
                c = ctxs[i].cost_at_rank(slot, ranks[i].get(slot, 0))
                if not np.isfinite(c) or spent + c > budget:
                    continue
                cand_i.append(i)
                cand_s.append(slot)
                cand_c.append(c)
        if not cand_i:
            break
        ci, cs = np.array(cand_i), np.array(cand_s)
        rows = np.arange(len(ci))
        evaluated += len(ci)
        # Row term: slot s enters task i's temporal k-NN at every slot whose
        # k-th neighbour is farther than s.
        t_new = t_sum[ci] - np.maximum(
            0.0, t_knn[ci, :, k - 1] - np.abs(slots[None, :] - cs[:, None])
        )
        ex_row = executed[ci]
        ex_row[rows, cs] = True
        p_row = _p_cells(rho_s[ci], t_new / (k * m), ex_row, w_s, w_t, m)
        gain = (partial_quality(p_row) - g_p[ci]).sum(axis=1)
        # Column term: task i enters slot s's spatial k-NN of every task.
        knn = np.concatenate([s_knn[cs], dmat[:, ci].T[:, :, None]], axis=2)
        knn.sort(axis=2)
        found = np.minimum(n_exec[cs] + 1, k)
        rs_new = np.empty((len(ci), n))
        for f in np.unique(found):
            sel = found == f
            rs_new[sel] = _rho_s(knn[sel], int(f), k, diag)
        p_col = _p_cells(rs_new, rho_t[:, cs].T, executed[:, cs].T, w_s, w_t, m)
        d_col = partial_quality(p_col) - g_p[:, cs].T
        d_col[rows, ci] = 0.0  # cell (i, s) is already in the row term
        gain += d_col.sum(axis=1)
        best = None  # (h, i, slot)
        for i, slot, g, c in zip(cand_i, cand_s, gain.tolist(), cand_c):
            h = gain_per_cost(g, c)
            if best is None or h > best[0] + EPS:
                best = (h, i, slot)
        _, i, slot = best
        spent += _claim(ctxs, ranks, claimed, i, slot)
        steps += 1
        executed[i, slot] = True
        d = np.abs(slots - slot).astype(np.float64)
        t_knn[i] = np.sort(np.concatenate([t_knn[i], d[:, None]], axis=1),
                           axis=1)[:, :k]
        t_sum[i] = t_knn[i].sum(axis=1)
        rho_t[i] = t_sum[i] / (k * m)
        s_knn[slot] = np.sort(
            np.concatenate([s_knn[slot], dmat[:, i][:, None]], axis=1), axis=1
        )[:, :k]
        n_exec[slot] += 1
        rho_s[:, slot] = _rho_s(s_knn[slot], min(int(n_exec[slot]), k), k, diag)
        g_p = partial_quality(_p_cells(rho_s, rho_t, executed, w_s, w_t, m))
    exec_sets = [set(np.nonzero(row)[0].tolist()) for row in executed]
    q, q_sum = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
    return StccResult(
        exec_sets=exec_sets,
        q_per_task=q,
        q_sum=q_sum,
        q_min=float(q.min()),
        total_cost=spent,
        stats={"w_s": w_s, "w_t": w_t, "steps": steps,
               "candidates_evaluated": evaluated},
    )


def solve_stcc_rand(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    w_s: float = 0.3,
    w_t: float = 0.7,
    domain: float,
    seed: int = 0,
) -> StccResult:
    """Rand baseline under the spatiotemporal metric."""
    _check_inputs(ctxs, k)
    n, m = len(ctxs), ctxs[0].m
    locs = np.array([[c.x, c.y] for c in ctxs])
    diag = float(domain * np.sqrt(2))
    exec_sets: list[set[int]] = [set() for _ in range(n)]
    ranks: list[dict[int, int]] = [dict() for _ in range(n)]
    claimed: set[tuple[int, int]] = set()
    g = np.random.default_rng(seed)
    pairs = [(i, s) for i in range(n) for s in ctxs[i].assignable_slots()]
    g.shuffle(pairs)
    spent = 0.0
    for i, slot in pairs:
        c = ctxs[i].cost_at_rank(int(slot), ranks[i].get(int(slot), 0))
        if not np.isfinite(c) or spent + c > budget:
            continue
        cost = _claim(ctxs, ranks, claimed, i, int(slot))
        exec_sets[i].add(int(slot))
        spent += cost
    q, q_sum = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
    return StccResult(
        exec_sets=exec_sets,
        q_per_task=q,
        q_sum=q_sum,
        q_min=float(q.min()),
        total_cost=spent,
    )


def solve_stcc_opt(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    w_s: float = 0.3,
    w_t: float = 0.7,
    domain: float,
) -> StccResult:
    """Exact STCC optimum: enumerate all budget-feasible (task, slot) subsets.

    Worker contention is resolved in enumeration (sorted-pair) order — at the
    tiny scales this runs at, rank bumps are rare and the simplification does
    not change which plan wins (DESIGN.md §5).  Use only for |T|·m ≤ ~18; the
    subset size is naturally capped by the budget over the cheapest costs.
    """
    import itertools

    _check_inputs(ctxs, k)
    n, m = len(ctxs), ctxs[0].m
    if n * m > 18:
        raise ValueError("solve_stcc_opt is exponential; n*m too large")
    locs = np.array([[c.x, c.y] for c in ctxs])
    diag = float(domain * np.sqrt(2))
    pairs = [
        (i, int(s)) for i in range(n) for s in ctxs[i].assignable_slots()
    ]
    base_costs = np.array(
        [ctxs[i].cost_at_rank(s, 0) for i, s in pairs]
    )
    # Budget caps the subset size: r items cost at least the r cheapest.
    cheap = np.sort(base_costs)
    max_r = int(np.searchsorted(np.cumsum(cheap), budget, side="right"))
    best_sets = [set() for _ in range(n)]
    best_q = 0.0
    best_cost = 0.0
    for r in range(1, max_r + 1):
        for combo in itertools.combinations(range(len(pairs)), r):
            if base_costs[list(combo)].sum() > budget * 1.5:
                continue  # cheap reject; exact cost checked below
            ranks = [dict() for _ in range(n)]
            claimed: set[tuple[int, int]] = set()
            exec_sets = [set() for _ in range(n)]
            spent = 0.0
            ok = True
            for ci in combo:
                i, slot = pairs[ci]
                rk = ranks[i].get(slot, 0)
                c = ctxs[i].cost_at_rank(slot, rk)
                if not np.isfinite(c) or spent + c > budget:
                    ok = False
                    break
                spent += _claim(ctxs, ranks, claimed, i, slot)
                exec_sets[i].add(slot)
            if not ok:
                continue
            _, q_sum = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
            if q_sum > best_q + EPS:
                best_sets = [set(s) for s in exec_sets]
                best_q, best_cost = q_sum, spent
    q, q_sum = stcc_quality(best_sets, locs, m, k, w_s, w_t, diag)
    return StccResult(
        exec_sets=best_sets,
        q_per_task=q,
        q_sum=q_sum,
        q_min=float(q.min()),
        total_cost=best_cost,
    )
