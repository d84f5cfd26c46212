"""Multi-task assignment (Section IV): serial MSQM and MMQM solvers.

MSQM (summation quality, Problem 2) runs the Algorithm-1 greedy globally:
each step commits the (task, slot) pair with the largest Δq/cost over *all*
tasks under a shared budget.  Worker conflicts are the paper's Fig 4
mechanism: when task A claims worker w at slot t, every other task whose
current lowest-cost candidate at slot t was w is bumped to its next-ranked
(2nd-, 3rd-, … nearest) unclaimed worker — the "k-th NN" field of the
Conflicting Table.

Lazy greedy is sound here: a task's marginal gains only decrease as it
executes more slots (submodularity, Lemma 2) and its per-slot costs only
increase (rank bumps), so a cached best-candidate value is always an upper
bound and can be re-validated on pop.

MMQM (minimum quality, Problem 3) keeps tasks in a heap by current quality
and repeatedly lets the weakest task execute its best subtask.

Both accept ``use_index=True`` (Approx*: per-task Voronoi tree index) or
``False`` (Approx: naive full recomputation) so the paper's Fig 9(g,h)
Approx-vs-Approx* comparison is reproducible.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS, Assignment, gain_per_cost
from repro.core.quality import p_vector, quality_from_p
from repro.core.tree_index import Candidate, VoronoiTreeIndex

__all__ = [
    "MultiResult",
    "TaskSolverState",
    "solve_msqm_serial",
    "solve_mmqm",
    "solve_multi_rand",
]


@dataclass
class MultiResult:
    """Aggregate outcome of a multi-task solve."""

    assignments: list[Assignment]
    q_sum: float
    q_min: float
    total_cost: float
    conflicts: int
    steps: int
    stats: dict = field(default_factory=dict)


class _NaiveSolver:
    """Approx-style per-task stepwise solver: full recompute per candidate."""

    def __init__(self, m: int, k: int, costs: np.ndarray):
        self.m, self.k = m, k
        self.costs = np.asarray(costs, dtype=np.float64).copy()
        self.exec_slots: list[int] = []
        self.q_cur = 0.0
        self.counters = {"candidates_evaluated": 0, "interp_ops": 0}

    def update_cost(self, slot: int, new_cost: float) -> None:
        self.costs[slot] = new_cost

    def best_candidate(self, rem_budget: float, t_s: int = 0) -> Candidate | None:
        best: Candidate | None = None
        ex = set(self.exec_slots)
        for x in range(self.m):
            if x in ex or not np.isfinite(self.costs[x]) or self.costs[x] > rem_budget:
                continue
            q_new = quality_from_p(
                p_vector(np.sort(np.asarray(self.exec_slots + [x])), self.m, self.k)
            )
            self.counters["candidates_evaluated"] += 1
            self.counters["interp_ops"] += self.m
            h = gain_per_cost(q_new - self.q_cur, float(self.costs[x]))
            if best is None or h > best.heuristic + EPS:
                best = Candidate(slot=x, heuristic=h, gain=q_new - self.q_cur)
        return best

    def commit(self, slot: int) -> None:
        self.exec_slots.append(slot)
        self.q_cur = quality_from_p(
            p_vector(np.sort(np.asarray(self.exec_slots)), self.m, self.k)
        )


@dataclass
class TaskSolverState:
    """One task's live state inside a multi-task solve."""

    ctx: TaskContext
    solver: object  # VoronoiTreeIndex | _NaiveSolver
    ranks: np.ndarray  # current worker rank per slot
    exec_slots: list[int] = field(default_factory=list)
    workers: list[int] = field(default_factory=list)
    spent: float = 0.0

    @property
    def quality(self) -> float:
        return float(self.solver.q_cur)


def _make_state(ctx: TaskContext, k: int, use_index: bool) -> TaskSolverState:
    costs = ctx.base_costs()
    solver = (
        VoronoiTreeIndex(ctx.m, k, costs) if use_index else _NaiveSolver(ctx.m, k, costs)
    )
    return TaskSolverState(ctx=ctx, solver=solver, ranks=np.zeros(ctx.m, dtype=np.int64))


def _claim_and_bump(
    states: list[TaskSolverState],
    committer: int,
    slot: int,
    claimed: set[tuple[int, int]],
) -> tuple[int, float, int]:
    """Commit task ``committer``'s claim on its current-rank worker at
    ``slot``; bump every other task that wanted the same worker.  Returns
    (worker_id, cost, n_bumps)."""
    st = states[committer]
    rank = int(st.ranks[slot])
    worker = st.ctx.worker_at_rank(slot, rank)
    cost = st.ctx.cost_at_rank(slot, rank)
    claimed.add((worker, slot))
    bumps = 0
    for i, other in enumerate(states):
        if i == committer:
            continue
        if slot in other.exec_slots:
            continue
        r = int(other.ranks[slot])
        if other.ctx.worker_at_rank(slot, r) != worker:
            continue
        # Conflict: advance to the next unclaimed rank (paper's k-th NN bump).
        while True:
            r += 1
            w = other.ctx.worker_at_rank(slot, r)
            if w == -1 or (w, slot) not in claimed:
                break
        other.ranks[slot] = r
        other.solver.update_cost(slot, other.ctx.cost_at_rank(slot, r))
        bumps += 1
    return worker, float(cost), bumps


def _finalize(states: list[TaskSolverState], conflicts: int, steps: int) -> MultiResult:
    assignments = [
        Assignment(
            task_id=st.ctx.task_id,
            exec_slots=list(st.exec_slots),
            workers=list(st.workers),
            cost=st.spent,
            quality=st.quality,
            stats=dict(getattr(st.solver, "counters", {})),
        )
        for st in states
    ]
    qs = [a.quality for a in assignments]
    return MultiResult(
        assignments=assignments,
        q_sum=float(sum(qs)),
        q_min=float(min(qs)) if qs else 0.0,
        total_cost=float(sum(a.cost for a in assignments)),
        conflicts=conflicts,
        steps=steps,
    )


def solve_msqm_serial(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    use_index: bool = True,
) -> MultiResult:
    """Serial MSQM: global lazy greedy by Δq_sum/cost with worker conflicts."""
    states = [_make_state(c, k, use_index) for c in ctxs]
    claimed: set[tuple[int, int]] = set()
    spent = 0.0
    conflicts = steps = 0
    # Lazy-greedy heap of (−cached_h, task_idx, epoch); epoch invalidates.
    epochs = [0] * len(states)
    heap: list[tuple[float, int, int]] = []
    cached: dict[int, Candidate | None] = {}

    def _push(i: int) -> None:
        cand = states[i].solver.best_candidate(budget - spent, t_s)
        cached[i] = cand
        if cand is not None:
            heapq.heappush(heap, (-cand.heuristic, i, epochs[i]))

    for i in range(len(states)):
        _push(i)
    while heap:
        neg_h, i, ep = heapq.heappop(heap)
        if ep != epochs[i]:
            continue  # stale entry
        cand = cached.get(i)
        if cand is None:
            continue
        slot = cand.slot
        cost = states[i].ctx.cost_at_rank(slot, int(states[i].ranks[slot]))
        if cost > budget - spent:
            # Re-evaluate under the tighter remaining budget.
            epochs[i] += 1
            _push(i)
            continue
        worker, cost, bumps = _claim_and_bump(states, i, slot, claimed)
        states[i].solver.commit(slot)
        states[i].exec_slots.append(slot)
        states[i].workers.append(worker)
        states[i].spent += cost
        spent += cost
        conflicts += bumps
        steps += 1
        epochs[i] += 1
        _push(i)
        if bumps:
            # Bumped tasks' cached candidates may now be invalid (cost rose).
            for j in range(len(states)):
                if j != i and cached.get(j) is not None and cached[j].slot == slot:
                    epochs[j] += 1
                    _push(j)
    res = _finalize(states, conflicts, steps)
    res.stats["budget"] = budget
    return res


def solve_mmqm(
    ctxs: list[TaskContext],
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    use_index: bool = True,
) -> MultiResult:
    """MMQM: repeatedly improve the minimum-quality task (heap-ordered)."""
    states = [_make_state(c, k, use_index) for c in ctxs]
    claimed: set[tuple[int, int]] = set()
    spent = 0.0
    conflicts = steps = 0
    exhausted: set[int] = set()
    while len(exhausted) < len(states):
        # Weakest task that can still act.
        order = sorted(
            (st.quality, i) for i, st in enumerate(states) if i not in exhausted
        )
        progressed = False
        for _, i in order:
            cand = states[i].solver.best_candidate(budget - spent, t_s)
            if cand is None:
                exhausted.add(i)
                continue
            slot = cand.slot
            worker, cost, bumps = _claim_and_bump(states, i, slot, claimed)
            states[i].solver.commit(slot)
            states[i].exec_slots.append(slot)
            states[i].workers.append(worker)
            states[i].spent += cost
            spent += cost
            conflicts += bumps
            steps += 1
            progressed = True
            break
        if not progressed:
            break
    res = _finalize(states, conflicts, steps)
    res.stats["budget"] = budget
    return res


def solve_multi_rand(
    ctxs: list[TaskContext], budget: float, k: int, *, seed: int = 0
) -> MultiResult:
    """Rand baseline for the multi-task case: random (task, slot) picks with
    nearest-unclaimed-worker assignment until the budget is exhausted."""
    states = [_make_state(c, k, use_index=True) for c in ctxs]
    claimed: set[tuple[int, int]] = set()
    g = np.random.default_rng(seed)
    pairs = [
        (i, int(s)) for i, c in enumerate(ctxs) for s in c.assignable_slots()
    ]
    g.shuffle(pairs)
    spent = 0.0
    conflicts = steps = 0
    for i, slot in pairs:
        st = states[i]
        if slot in st.exec_slots:
            continue
        cost = st.ctx.cost_at_rank(slot, int(st.ranks[slot]))
        if not np.isfinite(cost) or spent + cost > budget:
            continue
        worker, cost, bumps = _claim_and_bump(states, i, slot, claimed)
        st.solver.commit(slot)
        st.exec_slots.append(slot)
        st.workers.append(worker)
        st.spent += cost
        spent += cost
        conflicts += bumps
        steps += 1
    return _finalize(states, conflicts, steps)
