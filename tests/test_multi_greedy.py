"""Tests for serial MSQM / MMQM and the multi-task Rand baseline (Sec IV)."""
import numpy as np
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.multi_greedy import (
    solve_mmqm,
    solve_msqm_serial,
    solve_multi_rand,
)
from repro.core.quality import quality
from repro.workloads import gen_workload


def _instance(n_tasks=6, n_workers=300, m=24, seed=0, dist="uniform"):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, dist=dist,
                      seed=seed)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


class TestMsqmSerial:
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_respected(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        assert r.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_quality_consistent_with_exec_sets(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        for a in r.assignments:
            assert a.quality == pytest.approx(
                quality(a.exec_slots, ctxs[0].m, 3), abs=1e-9
            )
        assert r.q_sum == pytest.approx(sum(a.quality for a in r.assignments))
        assert r.q_min == pytest.approx(min(a.quality for a in r.assignments))

    @pytest.mark.parametrize("seed", range(4))
    def test_no_double_worker_claims(self, seed):
        """A (worker, slot) instance serves at most one subtask (Sec IV)."""
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        claims = [
            (w, s)
            for a in r.assignments
            for s, w in zip(a.exec_slots, a.workers)
        ]
        assert len(claims) == len(set(claims))

    @pytest.mark.parametrize("seed", range(3))
    def test_index_and_naive_agree(self, seed):
        _, ctxs, b = _instance(n_tasks=4, m=16, seed=seed)
        ri = solve_msqm_serial(ctxs, b, 2, use_index=True)
        rn = solve_msqm_serial(ctxs, b, 2, use_index=False)
        assert ri.q_sum == pytest.approx(rn.q_sum, rel=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_beats_rand(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_msqm_serial(ctxs, b, 3)
        rr = solve_multi_rand(ctxs, b, 3, seed=seed)
        assert r.q_sum >= rr.q_sum - 1e-9

    def test_conflicts_counted_with_shared_workers(self):
        """Co-located tasks competing for scarce workers must record bumps."""
        wl, ctxs, b = _instance(n_tasks=8, n_workers=60, m=16, seed=1,
                                dist="poi")
        r = solve_msqm_serial(ctxs, b, 3)
        assert r.conflicts >= 0  # structural; value asserted below
        # With this much contention at least one bump is expected.
        wl2, ctxs2, b2 = _instance(n_tasks=10, n_workers=40, m=12, seed=2,
                                   dist="gaussian")
        r2 = solve_msqm_serial(ctxs2, b2, 3)
        assert r2.conflicts > 0


class TestMmqm:
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_respected(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_mmqm(ctxs, b, 3)
        assert r.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_qmin_at_least_rand(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_mmqm(ctxs, b, 3)
        rr = solve_multi_rand(ctxs, b, 3, seed=seed)
        assert r.q_min >= rr.q_min - 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_qmin_at_least_msqm(self, seed):
        """Maximizing the minimum should not do worse on q_min than the
        q_sum-greedy (typical case; both are heuristics)."""
        _, ctxs, b = _instance(seed=seed)
        rm = solve_mmqm(ctxs, b, 3)
        rs = solve_msqm_serial(ctxs, b, 3)
        assert rm.q_min >= rs.q_min - 0.15 * max(rs.q_min, 1e-9)

    def test_no_double_worker_claims(self):
        _, ctxs, b = _instance(n_tasks=8, n_workers=60, m=16, seed=3)
        r = solve_mmqm(ctxs, b, 3)
        claims = [
            (w, s)
            for a in r.assignments
            for s, w in zip(a.exec_slots, a.workers)
        ]
        assert len(claims) == len(set(claims))

    @pytest.mark.parametrize("seed", range(3))
    def test_index_and_naive_agree_approximately(self, seed):
        _, ctxs, b = _instance(n_tasks=4, m=16, seed=seed)
        ri = solve_mmqm(ctxs, b, 2, use_index=True)
        rn = solve_mmqm(ctxs, b, 2, use_index=False)
        assert ri.q_min == pytest.approx(rn.q_min, rel=1e-6)


class TestMultiRand:
    @pytest.mark.parametrize("seed", range(4))
    def test_budget_respected(self, seed):
        _, ctxs, b = _instance(seed=seed)
        r = solve_multi_rand(ctxs, b, 3, seed=seed)
        assert r.total_cost <= b + 1e-6

    def test_deterministic_in_seed(self):
        _, ctxs, b = _instance()
        r1 = solve_multi_rand(ctxs, b, 3, seed=5)
        r2 = solve_multi_rand(ctxs, b, 3, seed=5)
        assert [a.exec_slots for a in r1.assignments] == [
            a.exec_slots for a in r2.assignments
        ]


class TestPinnedOpCounts:
    """Plan and per-task op counts recorded before the index's leaf batch
    was introduced; speed-ups of the index must leave them unchanged."""

    #: task → (exec_slots in commit order, workers, (candidates_evaluated,
    #: candidates_total, nodes_expanded, interp_ops, steps))
    PINNED = {
        0: ([23, 17, 22, 5, 32, 6, 33, 4, 27, 16, 31, 9, 20, 37, 14, 2, 8],
            [61, 357, 61, 313, 160, 313, 160, 313, 135, 260, 160, 353, 357,
             347, 202, 313, 353],
            (302, 549, 156, 6916, 17)),
        1: ([10, 9, 33, 15, 26, 27, 1, 36, 20, 31, 6, 17, 2, 37, 24, 30, 14],
            [109, 109, 365, 360, 37, 37, 262, 105, 168, 50, 127, 108, 262,
             105, 345, 37, 360],
            (333, 593, 194, 8011, 17)),
        2: ([21, 17, 16, 30, 13, 28, 0, 36, 8, 1, 33, 24, 37, 20, 4, 12],
            [179, 307, 311, 126, 202, 126, 208, 187, 87, 318, 123, 61, 99,
             179, 75, 128],
            (303, 537, 179, 6903, 16)),
        3: ([10, 21, 34, 3, 33, 12, 27, 7, 19, 32, 2, 23, 9, 28, 36, 15],
            [206, 57, 270, 75, 398, 100, 372, 291, 179, 398, 266, 32, 206,
             141, 270, 128],
            (341, 544, 186, 8298, 16)),
        4: ([26, 15, 28, 36, 11, 5, 33, 34, 25, 4, 17, 7, 14, 29, 20, 38, 32,
             23],
            [332, 381, 170, 145, 390, 304, 264, 264, 332, 280, 124, 280, 197,
             170, 5, 341, 264, 300],
            (327, 573, 184, 7664, 18)),
        5: ([19, 21, 34, 1, 32, 12, 39, 3, 6, 18, 35, 29, 11, 22, 2, 28, 13,
             36],
            [329, 329, 44, 219, 44, 65, 186, 219, 226, 329, 393, 388, 65, 378,
             232, 201, 65, 44],
            (341, 595, 214, 8140, 18)),
    }

    def test_msqm_serial(self):
        _, ctxs, b = _instance(n_tasks=6, n_workers=400, m=40, seed=3,
                               dist="zipf")
        res = solve_msqm_serial(ctxs, b, 3)
        assert (res.conflicts, res.steps) == (5, 102)
        keys = ("candidates_evaluated", "candidates_total", "nodes_expanded",
                "interp_ops", "steps")
        got = {
            a.task_id: (a.exec_slots, a.workers, tuple(a.stats[k] for k in keys))
            for a in res.assignments
        }
        assert got == self.PINNED
