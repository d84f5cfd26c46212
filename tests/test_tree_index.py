"""Tests for the Voronoi tree index and Approx* (Section III-C)."""
import numpy as np
import pytest

from repro.core.assignment import TaskContext, build_task_contexts, average_task_cost
from repro.core.greedy import solve_sqm_approx
from repro.core.multi_greedy import solve_msqm_serial
from repro.core.quality import p_vector, partial_quality, quality_from_p
from repro.core.tree_index import VoronoiTreeIndex, solve_sqm_approx_star
from repro.workloads import gen_workload


def _index_with(m, k, exec_slots, costs=None):
    costs = np.ones(m) if costs is None else costs
    return VoronoiTreeIndex(m, k, costs, initial_exec=exec_slots)


class TestIndexState:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_p_matches_reference(self, k, seed):
        rng = np.random.default_rng(seed)
        m = 30
        ex = sorted(rng.choice(m, size=6, replace=False).tolist())
        idx = _index_with(m, k, ex)
        np.testing.assert_allclose(idx.p, p_vector(np.array(ex), m, k))
        assert idx.q_cur == pytest.approx(
            quality_from_p(p_vector(np.array(ex), m, k))
        )

    def test_commit_updates_quality(self):
        idx = _index_with(20, 2, [3, 10])
        q0 = idx.q_cur
        idx.commit(15)
        assert idx.q_cur > q0
        assert idx.is_exec[15]

    def test_commit_twice_raises(self):
        idx = _index_with(10, 2, [3])
        with pytest.raises(ValueError):
            idx.commit(3)

    def test_m_too_small_raises(self):
        with pytest.raises(ValueError):
            VoronoiTreeIndex(2, 1, np.ones(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_heuristic_matches_full_recompute(self, seed):
        """Locality-based Δq must equal the full q(T∪{x}) − q(T) recompute."""
        rng = np.random.default_rng(seed)
        m, k = 40, 3
        ex = sorted(rng.choice(m, size=7, replace=False).tolist())
        costs = rng.uniform(1, 10, m)
        idx = _index_with(m, k, ex, costs)
        q0 = quality_from_p(p_vector(np.array(ex), m, k))
        for x in range(m):
            if x in ex:
                continue
            cand = idx.exact_heuristic(x)
            q1 = quality_from_p(p_vector(np.array(sorted(ex + [x])), m, k))
            assert cand.gain == pytest.approx(q1 - q0, abs=1e-9)
            assert cand.heuristic == pytest.approx((q1 - q0) / costs[x], abs=1e-9)


class TestUpperBounds:
    @pytest.mark.parametrize("seed", range(8))
    def test_node_ub_dominates_exact(self, seed):
        """Eq-6-derived node bounds must upper-bound every exact heuristic
        inside the node — soundness of best-first pruning."""
        rng = np.random.default_rng(seed + 3)
        m, k = 32, 2
        ex = sorted(rng.choice(m, size=5, replace=False).tolist())
        costs = rng.uniform(1, 5, m)
        idx = _index_with(m, k, ex, costs)
        for _ in range(10):
            l = int(rng.integers(0, m - 1))
            r = int(rng.integers(l, m))
            ub = idx._node_ub(l, r, rem_budget=np.inf)
            for x in range(l, r + 1):
                if idx.is_exec[x]:
                    continue
                h = idx.exact_heuristic(x).heuristic
                assert ub >= h - 1e-9, (l, r, x, ub, h)

    @pytest.mark.parametrize("seed", range(5))
    def test_window_superset_of_affected(self, seed):
        """The binary-search window must contain every slot whose k-NN set
        changes when a slot inside the segment is executed."""
        rng = np.random.default_rng(seed + 11)
        m, k = 40, 2
        ex = sorted(rng.choice(m, size=6, replace=False).tolist())
        idx = _index_with(m, k, ex)
        for x in range(m):
            if idx.is_exec[x]:
                continue
            lo, hi = idx._window(x, x)
            p_before = p_vector(np.array(ex), m, k)
            p_after = p_vector(np.array(sorted(ex + [x])), m, k)
            changed = np.nonzero(~np.isclose(p_before, p_after))[0]
            assert all(lo <= c <= hi for c in changed)


class TestBestCandidate:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("t_s", [2, 4, 8])
    def test_matches_exhaustive_argmax(self, seed, t_s):
        rng = np.random.default_rng(seed + 21)
        m, k = 36, 2
        ex = sorted(rng.choice(m, size=5, replace=False).tolist())
        costs = rng.uniform(1, 8, m)
        idx = _index_with(m, k, ex, costs)
        cand = idx.best_candidate(np.inf, t_s)
        # Exhaustive argmax on a fresh index (no cache interference).
        ref = _index_with(m, k, ex, costs)
        best_h = -np.inf
        for x in range(m):
            if ref.is_exec[x]:
                continue
            h = ref.exact_heuristic(x).heuristic
            best_h = max(best_h, h)
        assert cand.heuristic == pytest.approx(best_h, rel=1e-9)

    def test_no_affordable_candidates_returns_none(self):
        idx = _index_with(10, 2, [4], costs=np.full(10, 100.0))
        assert idx.best_candidate(1.0, 4) is None

    def test_budget_excludes_expensive_slots(self):
        costs = np.ones(12)
        costs[5] = 50.0
        idx = _index_with(12, 2, [0], costs)
        cand = idx.best_candidate(10.0, 4)
        assert cand.slot != 5

    def test_update_cost_invalidates_cache(self):
        idx = _index_with(16, 2, [2, 9], costs=np.ones(16))
        first = idx.best_candidate(np.inf, 4)
        idx.update_cost(first.slot, 1000.0)
        second = idx.best_candidate(np.inf, 4)
        assert second.slot != first.slot or second.heuristic < first.heuristic


class TestApproxStarSolver:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dist", ["uniform", "gaussian", "zipf"])
    def test_equivalent_to_naive_approx(self, seed, dist):
        """Approx* must deliver the same greedy plan and quality as the
        no-index Algorithm 1."""
        wl = gen_workload(n_tasks=1, n_workers=150, m=24, dist=dist, seed=seed)
        ctx = build_task_contexts(wl)[0]
        b = 0.3 * average_task_cost([ctx])
        a = solve_sqm_approx(ctx, b, 2)
        s = solve_sqm_approx_star(ctx, b, 2)
        assert s.quality == pytest.approx(a.quality, rel=1e-9)
        assert s.exec_slots == a.exec_slots
        assert s.cost == pytest.approx(a.cost, rel=1e-9)

    @pytest.mark.parametrize("t_s", [2, 4, 8, 16])
    def test_t_s_does_not_change_result(self, t_s):
        wl = gen_workload(n_tasks=1, n_workers=200, m=30, seed=4)
        ctx = build_task_contexts(wl)[0]
        b = 0.25 * average_task_cost([ctx])
        base = solve_sqm_approx_star(ctx, b, 3, t_s=4)
        other = solve_sqm_approx_star(ctx, b, 3, t_s=t_s)
        assert other.quality == pytest.approx(base.quality, rel=1e-9)

    def test_budget_respected(self):
        wl = gen_workload(n_tasks=1, n_workers=200, m=40, seed=5)
        ctx = build_task_contexts(wl)[0]
        b = 0.2 * average_task_cost([ctx])
        s = solve_sqm_approx_star(ctx, b, 3)
        assert s.cost <= b + 1e-9

    def test_pruning_stats_populated(self):
        wl = gen_workload(n_tasks=1, n_workers=300, m=60, seed=6)
        ctx = build_task_contexts(wl)[0]
        b = 0.25 * average_task_cost([ctx])
        s = solve_sqm_approx_star(ctx, b, 3)
        assert 0.0 <= s.stats["pruned_frac"] <= 1.0
        assert s.stats["candidates_evaluated"] > 0
        assert s.stats["steps"] == len(s.exec_slots) or s.stats["steps"] >= 1

    def test_larger_m_prunes_more(self):
        """The paper's Fig 8(d) shape: pruning ratio grows with m."""
        fracs = []
        for m in (40, 120):
            wl = gen_workload(n_tasks=1, n_workers=400, m=m, seed=7)
            ctx = build_task_contexts(wl)[0]
            b = 0.25 * average_task_cost([ctx])
            fracs.append(solve_sqm_approx_star(ctx, b, 3).stats["pruned_frac"])
        assert fracs[1] > fracs[0]


def _scalar_gain(idx, x):
    """Oracle: the per-candidate scalar Δq formula the leaf batch replaced."""
    m, k = idx.m, idx.k
    lo, hi = idx._window(x, x)
    ys = np.arange(lo, hi + 1)
    d = np.abs(ys - x).astype(np.float64)
    mask = (~idx.is_exec[ys]) & (ys != x) & (d < idx.dk[ys])
    ys, d = ys[mask], d[mask]
    new_sum = idx.D_sum[ys] - idx.dk[ys] + d
    new_p = np.clip((1.0 - new_sum / (k * m)) / m, 0.0, None)
    gain = float((partial_quality(new_p) - idx.g_p[ys]).sum())
    return gain + float(partial_quality(np.array([1.0 / m]))[0] - idx.g_p[x])


class TestLeafBatch:
    """One vectorized pass per leaf must give the scalar path's gains."""

    @staticmethod
    def _check(idx, xs):
        gains, hs = idx._evaluate(np.asarray(xs, dtype=np.int64))
        for x, g, h in zip(xs, gains, hs):
            ref = _scalar_gain(idx, x)
            assert abs(g - ref) <= 1e-12, (x, g, ref)
            assert abs(h - ref / idx.costs[x]) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_states(self, seed):
        rng = np.random.default_rng(seed + 40)
        m = int(rng.integers(3, 70))
        k = int(rng.integers(1, 6))
        n_ex = int(rng.integers(0, m))
        ex = sorted(rng.choice(m, size=n_ex, replace=False).tolist())
        idx = _index_with(m, k, ex, rng.uniform(1, 10, m))
        free = [x for x in range(m) if x not in ex]
        l = int(rng.integers(0, len(free)))
        self._check(idx, free[l:l + int(rng.integers(1, len(free) + 1))])

    @pytest.mark.parametrize("k", [3, 5])
    def test_k_at_least_executed_count(self, k):
        """Fewer than k executed slots: missing neighbours are padded by m."""
        idx = _index_with(25, k, [4, 17][: k - 2])
        self._check(idx, [x for x in range(25) if not idx.is_exec[x]])

    @pytest.mark.parametrize("ex", [[], [0], [1], [0, 2]])
    def test_m_equals_3(self, ex):
        idx = _index_with(3, 2, ex)
        self._check(idx, [x for x in range(3) if x not in ex])

    @pytest.mark.parametrize("x", [0, 9, 19])
    def test_single_candidate_leaf(self, x):
        idx = _index_with(20, 3, [5, 12], np.linspace(1, 3, 20))
        cand = idx.exact_heuristic(x)
        assert abs(cand.gain - _scalar_gain(idx, x)) <= 1e-12

    def test_whole_timeline_leaf_on_first_step(self):
        """Before any execution every slot shares the same (empty) k-NN set,
        so the root is one leaf holding every candidate."""
        m = 40
        costs = np.random.default_rng(3).uniform(1, 5, m)
        idx = _index_with(m, 3, [], costs)
        best = idx.best_candidate(np.inf, 4)
        assert idx.counters["nodes_expanded"] == 1
        assert idx.counters["candidates_evaluated"] == m
        refs = [_scalar_gain(idx, x) for x in range(m)]
        np.testing.assert_allclose(idx.gain_last, refs, rtol=0, atol=1e-12)
        hs = np.array(refs) / costs
        assert best.slot == int(np.flatnonzero(hs >= hs.max() - 1e-12).min())


class TestZeroCost:
    """A zero-cost candidate with positive gain ranks +inf."""

    @staticmethod
    def _ctx(costs, task_id=0, worker_base=0):
        return TaskContext(
            task_id=task_id, x=0.0, y=0.0, m=len(costs),
            slot_workers=[np.array([worker_base + j]) for j in range(len(costs))],
            slot_costs=[np.array([c], dtype=np.float64) for c in costs],
        )

    COSTS = [3.0, 2.5, 0.0, 4.0, 1.5, 0.0, 2.0, 3.5, 1.0, 2.2, 0.0, 2.8]

    def test_zero_cost_ranks_inf_lowest_slot_first(self):
        idx = VoronoiTreeIndex(len(self.COSTS), 2, np.array(self.COSTS))
        assert idx._node_ub(0, len(self.COSTS) - 1, 5.0) == np.inf
        cand = idx.best_candidate(5.0, 4)
        assert cand.slot == 2 and cand.heuristic == np.inf
        idx.commit(2)
        assert idx.best_candidate(5.0, 4).slot == 5

    def test_inf_tie_between_cached_and_fresh_goes_to_lowest_slot(self):
        idx = VoronoiTreeIndex(len(self.COSTS), 2, np.array(self.COSTS))
        idx.best_candidate(5.0, 4)  # caches every slot's heuristic
        idx.update_cost(2, 0.0)  # slot 2 is re-evaluated, slot 5 is cached
        assert idx.best_candidate(5.0, 4).slot == 2

    @pytest.mark.parametrize("frac", [0.0, 0.2, 0.5])
    def test_approx_star_matches_approx(self, frac):
        ctx = self._ctx(self.COSTS)
        b = frac * sum(self.COSTS)
        a = solve_sqm_approx(ctx, b, 2)
        s = solve_sqm_approx_star(ctx, b, 2)
        assert s.exec_slots == a.exec_slots
        assert {2, 5, 10} <= set(s.exec_slots)
        assert s.quality == pytest.approx(a.quality, rel=1e-9)

    @pytest.mark.parametrize("use_index", [True, False])
    def test_msqm_serial_does_not_raise(self, use_index):
        ctxs = [self._ctx(self.COSTS), self._ctx(self.COSTS[::-1], 1, 100)]
        res = solve_msqm_serial(ctxs, 6.0, 2, use_index=use_index)
        assert set(res.assignments[0].exec_slots) >= {2, 5, 10}
        assert set(res.assignments[1].exec_slots) >= {1, 6, 9}
        assert res.total_cost <= 6.0 + 1e-9


class TestUpdateCost:
    @pytest.mark.parametrize("seed", range(4))
    def test_range_min_after_random_bumps(self, seed):
        rng = np.random.default_rng(seed + 70)
        m = int(rng.integers(3, 90))
        costs = rng.uniform(1, 10, m)
        idx = _index_with(m, 2, [0], costs)
        for _ in range(60):
            slot = int(rng.integers(0, m))
            new = np.inf if rng.random() < 0.1 else float(rng.uniform(0, 20))
            idx.update_cost(slot, new)
            costs[slot] = new
            for _ in range(5):
                l = int(rng.integers(0, m))
                r = int(rng.integers(l, m))
                assert idx._range_min(idx._rmq_cost, l, r) == costs[l:r + 1].min()


class TestPinnedOpCounts:
    """Plan and op counts recorded before the leaf batch was introduced;
    speed-ups of the index must leave them unchanged."""

    def test_single_task(self):
        wl = gen_workload(n_tasks=1, n_workers=300, m=60, seed=6)
        ctx = build_task_contexts(wl)[0]
        s = solve_sqm_approx_star(ctx, 0.25 * average_task_cost([ctx]), 3)
        assert s.exec_slots == [
            0, 2, 7, 8, 15, 16, 17, 19, 20, 22, 23, 24, 28, 32, 33, 35, 38,
            39, 40, 46, 47, 48, 50, 51, 54, 56, 58,
        ]
        assert s.workers == [
            234, 234, 205, 173, 250, 250, 225, 33, 33, 78, 78, 78, 188, 249,
            249, 207, 69, 69, 69, 84, 84, 84, 84, 208, 184, 59, 59,
        ]
        assert {k: s.stats[k] for k in (
            "candidates_evaluated", "candidates_total", "nodes_expanded",
            "interp_ops", "steps",
        )} == {
            "candidates_evaluated": 563, "candidates_total": 1237,
            "nodes_expanded": 294, "interp_ops": 18775, "steps": 27,
        }
