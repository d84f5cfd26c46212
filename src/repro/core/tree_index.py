"""Approx*: tree-structured approximated order-k Voronoi index (Sec III-C).

The index accelerates Algorithm 1's inner argmax in two ways, exactly as the
paper describes:

1. **k-NN reuse (Voronoi locality).**  Current k-NN state is maintained for
   every slot (distances ``D``, neighbour identities ``IDX``, finishing
   probabilities ``p``).  The *affected region* of a tentative execution at
   slot ``x`` is ``{y : |y − x| < d_k(y)}`` — the slots whose order-k Voronoi
   cell changes — so an exact heuristic evaluation touches only that region
   instead of all ``m`` slots.

2. **Best-first search with upper-bound pruning.**  The timeline is split
   recursively into segments (the aggregated binary tree).  Each node's
   heuristic value is upper-bounded via Eq 6: an unexecuted slot's error
   ratio after any insertion in the node is at least
   ``(Σ_{S_(k−1)NN} d + 1)/(k·m)``, and since ``−p·log2 p`` is increasing on
   ``[0, 1/m]`` (m ≥ 3), that ρ lower bound yields a sound quality upper
   bound.  Nodes are popped best-first from a heap; a node splits until its
   endpoints share the same k-NN set (stopping condition 1, justified by
   Lemma 8) or its segment length drops below ``t_s`` (condition 2); a
   leaf's candidates are evaluated exactly, all in one vectorized pass over
   the union of their affected regions, then compared in slot order; nodes
   whose bound cannot beat the best exact value found are pruned.

Affected-region bounds use two monotone arrays: ``M(y) = max_{y'≤y} (y'+d_k)``
and ``N(y) = min_{y'≥y} (y'−d_k)``, both nondecreasing, so the superset window
of any segment's influence is found by binary search.
"""
from __future__ import annotations

import bisect
import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.assignment import TaskContext
from repro.core.greedy import EPS, Assignment, gain_per_cost
from repro.core.quality import knn_distances, partial_quality

__all__ = ["VoronoiTreeIndex", "solve_sqm_approx_star"]


@dataclass
class Candidate:
    slot: int
    heuristic: float
    gain: float


def _beats(h: float, x: int, best: Candidate) -> bool:
    """Slot-ordered greedy comparison: a higher Δq/cost wins beyond ``EPS``;
    within ``EPS`` (or both +inf) the lower slot wins."""
    if h > best.heuristic + EPS:
        return True
    return (h == best.heuristic or abs(h - best.heuristic) <= EPS) and x < best.slot


def _g_exec(m: int) -> float:
    """Entropy contribution g(1/m) = −(1/m)·log2(1/m) of an executed slot."""
    p = 1.0 / m
    return -p * math.log2(p)


def _sparse_table(values: np.ndarray) -> list[list[float]]:
    """Range-min sparse table: level ``l`` holds the minima of spans 2^l."""
    levels = [values]
    for lvl in range(1, max(1, len(values).bit_length())):
        half = 1 << (lvl - 1)
        prev = levels[-1]
        if half >= len(prev):
            break
        levels.append(np.minimum(prev[:-half], prev[half:]))
    return [t.tolist() for t in levels]


class VoronoiTreeIndex:
    """Incremental k-NN state + best-first pruned argmax for one task.

    ``costs`` may be updated between steps (multi-task rank bumps) via
    :meth:`update_cost`; k-NN state refreshes on :meth:`commit`.
    """

    def __init__(
        self, m: int, k: int, costs: np.ndarray, *, initial_exec=()
    ):
        if m < 3:
            raise ValueError("tree index requires m >= 3 (entropy monotonicity)")
        self.m, self.k = m, k
        self.g_exec = _g_exec(m)
        self.costs = np.asarray(costs, dtype=np.float64).copy()
        self._rmq_cost = _sparse_table(self.costs)
        self.exec_sorted = np.sort(np.asarray(list(initial_exec), dtype=np.int64))
        self.is_exec = np.zeros(m, dtype=bool)
        self.is_exec[self.exec_sorted] = True
        self.q_cur = 0.0
        self.timers = {"index": 0.0, "interp": 0.0, "refresh": 0.0}
        self.counters = {
            "candidates_evaluated": 0,
            "candidates_total": 0,
            "nodes_expanded": 0,
            "interp_ops": 0,
            "steps": 0,
        }
        # Cross-step reuse (the paper's incremental tree maintenance): exact
        # heuristic values survive commits whose affected window does not
        # overlap the window they were computed over.
        self.h_valid = np.zeros(m, dtype=bool)
        self.h_last = np.full(m, -np.inf)
        self.gain_last = np.zeros(m)
        self.win_lo = np.zeros(m, dtype=np.int64)
        self.win_hi = np.zeros(m, dtype=np.int64)
        self._refresh()

    # ---------------------------------------------------------------- state
    def _refresh(self) -> None:
        t0 = time.perf_counter()
        m, k = self.m, self.k
        slots = np.arange(m, dtype=np.int64)
        D, IDX = knn_distances(self.exec_sorted, m, k, slots)
        self.D_sum = D.sum(axis=1)
        self.dk = D[:, -1].copy()
        self.IDX = IDX
        p = (1.0 - self.D_sum / (k * m)) / m
        p[self.is_exec] = 1.0 / m
        # Executed slots are never "affected" by a tentative execution.
        self.dk[self.is_exec] = 0.0
        self.p = np.clip(p, 0.0, None)
        self.g_p = partial_quality(self.p)
        s_km1 = self.D_sum - D[:, -1]
        rho_lb = (s_km1 + 1.0) / (k * m)
        pub = np.clip((1.0 - rho_lb) / m, 0.0, 1.0 / m)
        pub[self.is_exec] = 1.0 / m
        diff = np.clip(partial_quality(pub) - self.g_p, 0.0, None)
        diff[self.is_exec] = 0.0
        self._prefix_diff = np.concatenate([[0.0], np.cumsum(diff)]).tolist()
        self._M = np.maximum.accumulate(slots + self.dk).tolist()
        self._N = np.minimum.accumulate((slots - self.dk)[::-1])[::-1].tolist()
        self.q_cur = float(self.g_p.sum())
        self._rmq_gp = _sparse_table(self.g_p)
        self.timers["refresh"] += time.perf_counter() - t0

    @staticmethod
    def _range_min(table: list[list[float]], l: int, r: int) -> float:
        lvl = min((r - l + 1).bit_length() - 1, len(table) - 1)
        row = table[lvl]
        a, b = row[l], row[r - (1 << lvl) + 1]
        return a if a <= b else b

    def update_cost(self, slot: int, new_cost: float) -> None:
        """Rank-bumped travel cost for ``slot`` (multi-task conflicts).

        Only the cost table's entries whose span covers ``slot`` change: one
        slice per level.
        """
        self.costs[slot] = new_cost
        self.h_valid[slot] = False
        table = self._rmq_cost
        table[0][slot] = float(new_cost)
        for lvl in range(1, len(table)):
            half = 1 << (lvl - 1)
            prev, row = table[lvl - 1], table[lvl]
            a, b = max(0, slot - 2 * half + 1), min(slot, len(row) - 1) + 1
            row[a:b] = map(min, prev[a:b], prev[a + half:b + half])

    def commit(self, slot: int) -> None:
        """Execute ``slot`` and refresh all k-NN state.

        Cached exact heuristics stay valid for every candidate whose
        evaluation window is disjoint from the committed slot's affected
        window (no slot they depend on changed) — the incremental-update
        rule of the paper's aggregated tree.
        """
        if self.is_exec[slot]:
            raise ValueError(f"slot {slot} already executed")
        lo_z, hi_z = self._window(slot, slot)
        self.is_exec[slot] = True
        self.exec_sorted = np.sort(np.append(self.exec_sorted, slot))
        self._refresh()
        stale = (self.win_lo <= hi_z) & (self.win_hi >= lo_z)
        self.h_valid[stale] = False
        self.h_valid[slot] = False
        self.counters["steps"] += 1

    # ------------------------------------------------------------- windows
    def _window(self, l: int, r: int) -> tuple[int, int]:
        """Superset of slots affected by executing any slot in [l, r]."""
        lo = bisect.bisect_right(self._M, l)
        hi = bisect.bisect_left(self._N, r) - 1
        return min(lo, l), max(hi, r)

    # ------------------------------------------------------------- bounds
    def _node_ub(self, l: int, r: int, rem_budget: float) -> float:
        min_cost = self._range_min(self._rmq_cost, l, r)
        if min_cost == math.inf or min_cost > rem_budget:
            return -math.inf
        own = self.g_exec - self._range_min(self._rmq_gp, l, r)
        lo, hi = self._window(l, r)
        gain = max(0.0, own) + (self._prefix_diff[hi + 1] - self._prefix_diff[lo])
        return gain_per_cost(gain, min_cost)

    # --------------------------------------------------------------- exact
    def _evaluate(self, xs: np.ndarray) -> tuple[list[float], list[float]]:
        """Exact Δq and Δq/cost of tentatively executing each unexecuted slot
        in ``xs``, in one pass over the union of their affected windows.

        Every slot a candidate affects lies inside its window, so the rows
        need no window mask beyond ``0 < |y − x| < d_k(y)`` (d_k is 0 at
        executed slots).  Each result is cached with its window.
        """
        t0 = time.perf_counter()
        m, k = self.m, self.k
        wins = [self._window(x, x) for x in xs.tolist()]
        lo = np.array([w[0] for w in wins], dtype=np.int64)
        hi = np.array([w[1] for w in wins], dtype=np.int64)
        y0, y1 = int(lo.min()), int(hi.max()) + 1
        d = np.abs(np.arange(y0, y1)[None, :] - xs[:, None]).astype(np.float64)
        dk = self.dk[y0:y1]
        affected = (d > 0.0) & (d < dk)
        new_sum = self.D_sum[y0:y1] - dk + d
        new_p = np.clip((1.0 - new_sum / (k * m)) / m, 0.0, None)
        delta = np.where(affected, partial_quality(new_p) - self.g_p[y0:y1], 0.0)
        gains = delta.sum(axis=1) + (self.g_exec - self.g_p[xs])
        hs = [
            gain_per_cost(g, c)
            for g, c in zip(gains.tolist(), self.costs[xs].tolist())
        ]
        self.counters["interp_ops"] += int((hi - lo).sum()) + len(xs)
        self.h_valid[xs] = True
        self.h_last[xs] = hs
        self.gain_last[xs] = gains
        self.win_lo[xs], self.win_hi[xs] = lo, hi
        self.timers["interp"] += time.perf_counter() - t0
        return gains.tolist(), hs

    def exact_heuristic(self, x: int) -> Candidate:
        """Exact Δq/cost of tentatively executing ``x`` (affected-region only)."""
        gains, hs = self._evaluate(np.array([x], dtype=np.int64))
        return Candidate(slot=x, heuristic=hs[0], gain=gains[0])

    def _same_knn_endpoints(self, l: int, r: int) -> bool:
        """Stopping condition 1: knn(l) == knn(r) ⇒ whole segment is one
        order-k Voronoi cell (Lemma 8)."""
        return set(self.IDX[l].tolist()) == set(self.IDX[r].tolist())

    # -------------------------------------------------------------- search
    def best_candidate(self, rem_budget: float, t_s: int) -> Candidate | None:
        """Best-first argmax of Δq/cost over affordable unexecuted slots."""
        m = self.m
        afford = (~self.is_exec) & np.isfinite(self.costs) & (self.costs <= rem_budget)
        n_afford = int(afford.sum())
        self.counters["candidates_total"] += n_afford
        if n_afford == 0:
            return None
        t0 = time.perf_counter()
        best: Candidate | None = None
        # Seed θ with still-valid exact heuristics from earlier steps —
        # candidates untouched by recent commits need no re-evaluation.
        cached = afford & self.h_valid
        if cached.any():
            hs = np.where(cached, self.h_last, -np.inf)
            h_max = float(hs.max())
            near = np.nonzero(hs >= h_max - EPS)[0]
            x0 = int(near.min())
            best = Candidate(slot=x0, heuristic=float(self.h_last[x0]),
                             gain=float(self.gain_last[x0]))
        # Subtrees holding no stale affordable candidate are skipped outright
        # (the paper's "otherwise, the entire subtree is skipped").
        stale = afford & ~self.h_valid
        stale_ps = np.concatenate([[0], np.cumsum(stale)]).tolist()

        def _has_stale(l: int, r: int) -> bool:
            return stale_ps[r + 1] > stale_ps[l]

        heap: list[tuple[float, int, int, int]] = []
        tie = 0
        root_ub = self._node_ub(0, m - 1, rem_budget)
        if (
            root_ub > -math.inf
            and _has_stale(0, m - 1)
            and (best is None or root_ub >= best.heuristic - EPS)
        ):
            heapq.heappush(heap, (-root_ub, tie, 0, m - 1))
        while heap:
            neg_ub, _, l, r = heapq.heappop(heap)
            ub = -neg_ub
            if best is not None and ub < best.heuristic - EPS:
                break  # heap is UB-ordered: nothing below can win
            self.counters["nodes_expanded"] += 1
            is_leaf = (r - l + 1) <= t_s or self._same_knn_endpoints(l, r)
            if is_leaf:
                self.timers["index"] += time.perf_counter() - t0
                # Leaves are disjoint, so the stale slots found at the start
                # are exactly the leaf's unevaluated affordable candidates.
                xs = np.flatnonzero(stale[l:r + 1]) + l
                gains, hs = self._evaluate(xs)
                self.counters["candidates_evaluated"] += len(xs)
                for x, h, g in zip(xs.tolist(), hs, gains):
                    if best is None or _beats(h, x, best):
                        best = Candidate(slot=x, heuristic=h, gain=g)
                t0 = time.perf_counter()
            else:
                mid = (l + r) // 2
                for cl, cr in ((l, mid), (mid + 1, r)):
                    if not _has_stale(cl, cr):
                        continue
                    ub_c = self._node_ub(cl, cr, rem_budget)
                    if ub_c > -math.inf and (
                        best is None or ub_c >= best.heuristic - EPS
                    ):
                        tie += 1
                        heapq.heappush(heap, (-ub_c, tie, cl, cr))
        self.timers["index"] += time.perf_counter() - t0
        return best


def _best_single_subtask(
    m: int, k: int, costs: np.ndarray, budget: float
) -> tuple[int | None, float]:
    """Algorithm 1 line 3: the affordable single subtask of highest quality.

    With exactly one executed slot x, every other slot y has one real
    neighbour at |y−x| plus (k−1) missing neighbours at distance m, so the
    whole sweep vectorizes to O(m²).
    """
    cand = np.nonzero(np.isfinite(costs) & (costs <= budget))[0]
    if len(cand) == 0:
        return None, -np.inf
    ys = np.arange(m)
    dist = np.abs(ys[None, :] - cand[:, None]).astype(np.float64)
    sums = dist + (k - 1) * m
    p = np.clip((1.0 - sums / (k * m)) / m, 0.0, None)
    gp = partial_quality(p)
    rows = np.arange(len(cand))
    gp[rows, cand] = _g_exec(m)
    q = gp.sum(axis=1)
    i = int(np.argmax(q))
    return int(cand[i]), float(q[i])


def solve_sqm_approx_star(
    ctx: TaskContext, budget: float, k: int, *, t_s: int = 4
) -> Assignment:
    """Approx*: Algorithm 1 driven by the Voronoi tree index."""
    m = ctx.m
    costs = ctx.base_costs()
    idx = VoronoiTreeIndex(m, k, costs)
    best_single, best_single_q = _best_single_subtask(m, k, costs, budget)

    exec_slots: list[int] = []
    spent = 0.0
    while True:
        cand = idx.best_candidate(budget - spent, t_s)
        if cand is None:
            break
        exec_slots.append(cand.slot)
        spent += float(costs[cand.slot])
        idx.commit(cand.slot)

    q_cur = idx.q_cur if exec_slots else 0.0
    if best_single is not None and best_single_q > q_cur + EPS:
        exec_slots, spent, q_cur = (
            [best_single],
            float(costs[best_single]),
            best_single_q,
        )
    exec_slots = sorted(exec_slots)
    stats = dict(idx.counters)
    stats["timers"] = dict(idx.timers)
    total = max(1, stats["candidates_total"])
    stats["pruned_frac"] = 1.0 - stats["candidates_evaluated"] / total
    return Assignment(
        task_id=ctx.task_id,
        exec_slots=exec_slots,
        workers=[ctx.worker_at_rank(j, 0) for j in exec_slots],
        cost=float(spent),
        quality=float(q_cur),
        stats=stats,
    )
