"""Tests for the spatiotemporal STCC extension (paper Appendix C)."""
import numpy as np
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.greedy import EPS, gain_per_cost
from repro.core.quality import p_vector
from repro.stcc import spatio_temporal
from repro.stcc.spatio_temporal import (
    _claim,
    solve_stcc_greedy,
    solve_stcc_opt,
    solve_stcc_rand,
    stcc_p_matrix,
    stcc_quality,
)
from repro.workloads import gen_workload


def _instance(n_tasks=4, n_workers=200, m=16, seed=0, dist="uniform",
              frac=0.25):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, seed=seed,
                      dist=dist)
    ctxs = build_task_contexts(wl)
    b = frac * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


def _brute_force_greedy(ctxs, budget, k, *, w_s=0.3, w_t=0.7, domain):
    """Reference SApprox: rescore the full |T|×m metric for every candidate."""
    n, m = len(ctxs), ctxs[0].m
    locs = np.array([[c.x, c.y] for c in ctxs])
    diag = float(domain * np.sqrt(2))
    exec_sets: list[set[int]] = [set() for _ in range(n)]
    ranks: list[dict[int, int]] = [dict() for _ in range(n)]
    claimed: set[tuple[int, int]] = set()
    spent = 0.0
    _, q_cur = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
    while True:
        best = None  # (h, i, slot, q_new, cost)
        for i in range(n):
            for slot in range(m):
                if slot in exec_sets[i]:
                    continue
                c = ctxs[i].cost_at_rank(slot, ranks[i].get(slot, 0))
                if not np.isfinite(c) or spent + c > budget:
                    continue
                exec_sets[i].add(slot)
                _, q_new = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
                exec_sets[i].discard(slot)
                h = gain_per_cost(q_new - q_cur, c)
                if best is None or h > best[0] + EPS:
                    best = (h, i, slot, q_new, float(c))
        if best is None:
            break
        _, i, slot, q_new, _c = best
        cost = _claim(ctxs, ranks, claimed, i, slot)
        exec_sets[i].add(slot)
        spent += cost
        q_cur = q_new
    _, q_sum = stcc_quality(exec_sets, locs, m, k, w_s, w_t, diag)
    return exec_sets, spent, q_sum


class TestStccMetric:
    def test_temporal_only_matches_base_metric(self):
        """w_t = 1 must reproduce the purely temporal p of Eqs 2–3."""
        m, k = 20, 2
        exec_sets = [{2, 7}, {11}, set()]
        locs = np.array([[0.0, 0.0], [50.0, 10.0], [99.0, 99.0]])
        p = stcc_p_matrix(exec_sets, locs, m, k, w_s=0.0, w_t=1.0, diag=140.0)
        for i, ex in enumerate(exec_sets):
            ref = p_vector(np.sort(np.array(list(ex), dtype=np.int64)), m, k)
            np.testing.assert_allclose(p[i], ref, atol=1e-12)

    def test_executed_probability_is_1_over_m(self):
        p = stcc_p_matrix([{3}, set()], np.zeros((2, 2)), 10, 2, 0.3, 0.7,
                          diag=100.0)
        assert p[0, 3] == pytest.approx(1 / 10)

    def test_nothing_executed_gives_zero(self):
        p = stcc_p_matrix([set(), set()], np.zeros((2, 2)), 10, 2, 0.3, 0.7,
                          diag=100.0)
        assert (p == 0).all()

    def test_spatial_neighbour_raises_probability(self):
        """A near task executed at the same slot lifts p above temporal-only
        interpolation; a far one helps less."""
        m, k = 12, 2
        locs_near = np.array([[0.0, 0.0], [1.0, 0.0]])
        locs_far = np.array([[0.0, 0.0], [999.0, 999.0]])
        exec_sets = [set(), {5}]
        diag = 1000 * np.sqrt(2)
        p_near = stcc_p_matrix(exec_sets, locs_near, m, k, 0.5, 0.5, diag)
        p_far = stcc_p_matrix(exec_sets, locs_far, m, k, 0.5, 0.5, diag)
        assert p_near[0, 5] > p_far[0, 5]

    def test_weights_interpolate_between_extremes(self):
        m, k = 12, 2
        locs = np.array([[0.0, 0.0], [10.0, 0.0]])
        exec_sets = [{2}, {5}]
        diag = 100.0
        qs = []
        for wt in (0.0, 0.5, 1.0):
            _, q = stcc_quality(exec_sets, locs, m, k, 1 - wt, wt, diag)
            qs.append(q)
        assert min(qs) <= qs[1] <= max(qs) + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_monotone_in_executions(self, seed):
        """Appendix: the combined metric stays non-decreasing."""
        rng = np.random.default_rng(seed)
        m, k, n = 14, 2, 3
        locs = rng.uniform(0, 100, size=(n, 2))
        exec_sets = [set() for _ in range(n)]
        _, prev = stcc_quality(exec_sets, locs, m, k, 0.3, 0.7, 150.0)
        for _ in range(10):
            i = int(rng.integers(0, n))
            free = [s for s in range(m) if s not in exec_sets[i]]
            if not free:
                continue
            exec_sets[i].add(int(rng.choice(free)))
            _, cur = stcc_quality(exec_sets, locs, m, k, 0.3, 0.7, 150.0)
            assert cur >= prev - 1e-9
            prev = cur

    @pytest.mark.parametrize("seed", range(4))
    def test_submodular_marginals(self, seed):
        rng = np.random.default_rng(seed + 40)
        m, k, n = 10, 2, 3
        locs = rng.uniform(0, 100, size=(n, 2))
        base = [set() for _ in range(n)]
        base[0] = {1, 6}
        i, s = 1, 4
        z_i, z_s = 2, 7

        def q(sets):
            return stcc_quality(sets, locs, m, k, 0.3, 0.7, 150.0)[1]

        small = [set(x) for x in base]
        large = [set(x) for x in base]
        large[z_i].add(z_s)
        g_small = q([x | ({s} if j == i else set())
                     for j, x in enumerate(small)]) - q(small)
        g_large = q([x | ({s} if j == i else set())
                     for j, x in enumerate(large)]) - q(large)
        assert g_small >= g_large - 1e-9


class TestStccSolvers:
    @pytest.mark.parametrize("seed", range(3))
    def test_budgets_respected(self, seed):
        wl, ctxs, b = _instance(seed=seed)
        sa = solve_stcc_greedy(ctxs, b, 2, domain=wl.domain)
        ra = solve_stcc_rand(ctxs, b, 2, domain=wl.domain, seed=seed)
        assert sa.total_cost <= b + 1e-6
        assert ra.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_sapprox_beats_rand(self, seed):
        wl, ctxs, b = _instance(seed=seed)
        sa = solve_stcc_greedy(ctxs, b, 2, domain=wl.domain)
        ra = solve_stcc_rand(ctxs, b, 2, domain=wl.domain, seed=seed)
        assert sa.q_sum >= ra.q_sum - 1e-9

    @pytest.mark.parametrize("seed", range(2))
    def test_sapprox_beats_temporal_only_under_combined_metric(self, seed):
        """Fig 11 shape: under the combined metric, optimizing with spatial
        interpolation is at least as good as temporal-only planning."""
        wl, ctxs, b = _instance(n_tasks=4, m=14, seed=seed)
        locs = np.array([[c.x, c.y] for c in ctxs])
        diag = wl.domain * np.sqrt(2)
        sa = solve_stcc_greedy(ctxs, b, 2, w_s=0.3, w_t=0.7, domain=wl.domain)
        ap = solve_stcc_greedy(ctxs, b, 2, w_s=0.0, w_t=1.0, domain=wl.domain)
        _, ap_rescored = stcc_quality(ap.exec_sets, locs, ctxs[0].m, 2,
                                      0.3, 0.7, diag)
        assert sa.q_sum >= ap_rescored - 0.05 * abs(ap_rescored)

    def test_opt_rejects_large_instances(self):
        _, ctxs, _ = _instance(n_tasks=4, m=16)
        with pytest.raises(ValueError):
            solve_stcc_opt(ctxs, 10.0, 2, domain=1000.0)

    @pytest.mark.parametrize("seed", range(2))
    def test_greedy_within_ratio_of_opt(self, seed):
        wl = gen_workload(n_tasks=3, n_workers=150, m=6, seed=seed)
        ctxs = build_task_contexts(wl)
        b = 0.25 * average_task_cost(ctxs) * 3
        op = solve_stcc_opt(ctxs, b, 2, domain=wl.domain)
        sa = solve_stcc_greedy(ctxs, b, 2, domain=wl.domain)
        assert sa.q_sum <= op.q_sum + 1e-9
        if op.q_sum > 0:
            ratio = 1 - 1 / np.sqrt(np.e)
            assert sa.q_sum >= ratio * op.q_sum - 1e-9

    def test_no_double_claims(self, monkeypatch):
        """Every claim goes through the module's ``_claim``, no (worker, slot)
        is claimed twice, and the claimed costs add up to ``total_cost``."""
        wl, ctxs, b = _instance(n_tasks=5, n_workers=60, m=10, seed=1)
        claims = []

        def recording_claim(ctxs_, ranks, claimed, i, slot):
            w = ctxs_[i].worker_at_rank(slot, ranks[i].get(slot, 0))
            cost = _claim(ctxs_, ranks, claimed, i, slot)
            claims.append((w, slot, cost))
            return cost

        monkeypatch.setattr(spatio_temporal, "_claim", recording_claim)
        sa = solve_stcc_greedy(ctxs, b, 2, domain=wl.domain)
        pairs = [(w, s) for w, s, _ in claims]
        assert len(pairs) == sum(len(s) for s in sa.exec_sets) > 0
        assert len(set(pairs)) == len(pairs)
        assert all(w >= 0 for w, _ in pairs)
        assert sum(c for _, _, c in claims) == pytest.approx(sa.total_cost,
                                                              abs=1e-9)

    def test_pinned_plan_and_counters(self):
        """Fig 11 default instance (k = 3, 25 %): plan and counters as the
        brute-force greedy recorded them (2,234 metric rebuilds = the
        initial and final score plus one per evaluated candidate)."""
        wl, ctxs, b = _instance(n_tasks=4, n_workers=400, m=20, seed=0)
        sa = solve_stcc_greedy(ctxs, b, 3, domain=wl.domain)
        assert [sorted(s) for s in sa.exec_sets] == [
            [0, 1, 4, 6, 7, 8, 9, 10, 12, 18],
            [5, 6, 7, 10, 12, 13, 14, 15, 16, 17],
            [2, 3, 7, 10, 12, 14, 16, 19],
            [1, 5, 8, 9, 11, 13, 16, 17, 19],
        ]
        assert sa.stats["steps"] == 37
        assert sa.stats["candidates_evaluated"] == 2232
        assert sa.total_cost == pytest.approx(1578.768411519008, abs=1e-9)
        assert sa.q_sum == pytest.approx(15.227624302360962, abs=1e-9)


class TestDeltaMatchesBruteForce:
    """The row/column delta greedy picks the brute-force greedy's plan."""

    @pytest.mark.parametrize(
        "dist,n_tasks,n_workers,m,k,w_s,frac,seed",
        [
            ("uniform", 3, 150, 10, 2, 0.3, 0.25, 0),
            ("gaussian", 3, 150, 10, 3, 0.3, 0.25, 1),
            ("zipf", 3, 150, 10, 2, 0.3, 0.5, 2),
            ("poi", 3, 150, 10, 3, 0.3, 0.25, 3),
            ("uniform", 3, 150, 8, 2, 0.0, 0.25, 4),
            ("gaussian", 3, 150, 8, 3, 1.0, 0.25, 5),
            ("zipf", 3, 150, 4, 6, 0.3, 0.5, 6),  # k ≥ m
            ("uniform", 3, 100, 1, 2, 0.3, 5.0, 7),  # m = 1
            ("poi", 3, 100, 2, 3, 1.0, 5.0, 8),  # m = 2, k ≥ m
            ("uniform", 3, 150, 8, 2, 0.3, 0.0, 9),  # zero budget
            ("gaussian", 3, 150, 6, 2, 0.3, 5.0, 10),  # above full execution
            ("uniform", 1, 100, 12, 2, 0.3, 0.5, 11),  # one task
            ("zipf", 4, 6, 10, 2, 0.3, 5.0, 12),  # slots with no worker
        ],
    )
    def test_same_plan(self, dist, n_tasks, n_workers, m, k, w_s, frac, seed):
        wl, ctxs, b = _instance(n_tasks=n_tasks, n_workers=n_workers, m=m,
                                seed=seed, dist=dist, frac=frac)
        if n_workers < m:
            assert any(len(c.assignable_slots()) < m for c in ctxs)
        ref_sets, ref_cost, ref_q = _brute_force_greedy(
            ctxs, b, k, w_s=w_s, w_t=1 - w_s, domain=wl.domain
        )
        sa = solve_stcc_greedy(ctxs, b, k, w_s=w_s, w_t=1 - w_s,
                               domain=wl.domain)
        assert sa.exec_sets == ref_sets
        assert sa.total_cost == ref_cost
        assert sa.q_sum == pytest.approx(ref_q, abs=1e-9)
        assert sa.stats["steps"] == sum(len(s) for s in ref_sets)


class TestInvalidInput:
    SOLVERS = [solve_stcc_greedy, solve_stcc_rand, solve_stcc_opt]

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_no_tasks(self, solver):
        with pytest.raises(ValueError, match="at least one task"):
            solver([], 10.0, 2, domain=1000.0)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, solver, k):
        wl, ctxs, b = _instance(n_tasks=2, n_workers=50, m=4, seed=0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            solver(ctxs, b, k, domain=wl.domain)
