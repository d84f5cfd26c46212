"""Tests for task-level parallelization on Spark (Section IV-A-2)."""
import pytest

from repro.core.assignment import average_task_cost, build_task_contexts
from repro.core.multi_greedy import solve_msqm_serial
from repro.core.quality import quality
from repro.sparkpar.task_parallel import solve_msqm_task_parallel
from repro.workloads import gen_workload


def _instance(n_tasks=6, n_workers=300, m=20, seed=0, dist="uniform"):
    wl = gen_workload(n_tasks=n_tasks, n_workers=n_workers, m=m, dist=dist,
                      seed=seed)
    ctxs = build_task_contexts(wl)
    b = 0.25 * average_task_cost(ctxs) * n_tasks
    return wl, ctxs, b


class TestTaskParallel:
    @pytest.mark.parametrize("seed", range(3))
    def test_budget_respected(self, spark, seed):
        wl, _, b = _instance(seed=seed)
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        assert r.total_cost <= b + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_no_double_worker_claims(self, spark, seed):
        wl, _, b = _instance(n_tasks=8, n_workers=80, m=12, seed=seed,
                             dist="gaussian")
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        claims = [
            (w, s)
            for a in r.assignments
            for s, w in zip(a.exec_slots, a.workers)
        ]
        assert len(claims) == len(set(claims))

    @pytest.mark.parametrize("seed", range(3))
    def test_quality_consistent_with_exec_sets(self, spark, seed):
        wl, _, b = _instance(seed=seed)
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        for a in r.assignments:
            assert a.quality == pytest.approx(
                quality(a.exec_slots, wl.m, 3), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(2))
    def test_deterministic_equivalence_ample_budget(self, spark, seed):
        """The paper's determinism claim: with no budget pressure the
        parallel plan equals the serial plan exactly."""
        wl, ctxs, _ = _instance(n_tasks=4, n_workers=400, m=12, seed=seed)
        b = 1e9  # everything affordable
        rs = solve_msqm_serial(ctxs, b, 3)
        rt, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        ser = {a.task_id: sorted(a.exec_slots) for a in rs.assignments}
        par = {a.task_id: sorted(a.exec_slots) for a in rt.assignments}
        assert ser == par

    @pytest.mark.parametrize("seed", range(2))
    def test_near_serial_quality_tight_budget(self, spark, seed):
        """At budget exhaustion the paper admits small deviations; q_sum must
        stay within 2 % of serial."""
        wl, ctxs, b = _instance(seed=seed)
        rs = solve_msqm_serial(ctxs, b, 3)
        rt, _ = solve_msqm_task_parallel(spark, wl, b, 3)
        assert rt.q_sum >= 0.98 * rs.q_sum

    def test_tables_populated(self, spark):
        wl, _, b = _instance(n_tasks=6, n_workers=60, m=12, seed=1,
                             dist="poi")
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3)
        assert tables["rounds"] >= 1
        assert not tables["heartbeat"].empty
        log = tables["logging"]
        assert (log.committed | (log.reason != "ok")).all()
        if r.conflicts:
            assert not tables["conflicting"].empty
            assert (tables["conflicting"].bumped_to_rank >= 2).all()

    def test_priority_flag_runs(self, spark):
        wl, _, b = _instance(n_tasks=4, seed=2)
        r1, _ = solve_msqm_task_parallel(spark, wl, b, 3, priority=True)
        r0, _ = solve_msqm_task_parallel(spark, wl, b, 3, priority=False)
        # Priority scheduling follows the greedy order; it should not lose.
        assert r1.q_sum >= r0.q_sum - 0.02 * abs(r0.q_sum)

    def test_chain_len_one_still_works(self, spark):
        wl, _, b = _instance(n_tasks=3, m=10, seed=3)
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3, chain_len=1)
        assert r.steps > 0
        assert tables["rounds"] >= r.steps / 3

    def test_partitions_knob_accepted(self, spark):
        wl, _, b = _instance(n_tasks=4, m=10, seed=4)
        r, _ = solve_msqm_task_parallel(spark, wl, b, 3, num_partitions=2)
        assert len(r.assignments) == 4


# Plans recorded on the commit before the proposal stage moved from
# ``groupBy("task_id").applyInPandas`` to ``mapInPandas``: (instance
# arguments, exec_slots, workers, conflicts, rounds).
_PINNED = [
    (
        dict(seed=0),
        [[1, 2, 6, 8, 9, 10, 11, 12, 13, 17], [2, 3, 4, 8, 9, 11, 15, 16, 18],
         [0, 3, 6, 9, 11, 14, 16, 17], [1, 3, 5, 7, 8, 9, 12, 15, 17, 19],
         [0, 3, 4, 8, 10, 13, 14, 16], [3, 4, 5, 7, 8, 10, 11, 14, 15]],
        [[144, 74, 257, 127, 127, 127, 111, 45, 185, 32],
         [277, 277, 269, 199, 68, 48, 103, 103, 103],
         [164, 65, 223, 161, 161, 51, 49, 49],
         [212, 53, 50, 14, 216, 216, 23, 61, 118, 21],
         [233, 167, 167, 243, 54, 291, 291, 141],
         [280, 280, 191, 162, 162, 297, 297, 229, 229]],
        0,
        2,
    ),
    (
        dict(n_tasks=8, n_workers=80, m=12, seed=1, dist="gaussian"),
        [[3, 4, 5, 9], [2, 5, 6, 7, 9], [2, 7, 8, 9], [3, 5, 7], [0, 7, 8, 9],
         [4, 5, 7], [1, 2, 5, 8, 11], [3, 5, 7, 10]],
        [[71, 56, 56, 15], [34, 60, 60, 60, 77], [74, 20, 20, 20], [2, 24, 51],
         [9, 65, 19, 19], [71, 11, 77], [23, 23, 69, 51, 51],
         [24, 71, 58, 15]],
        16,
        2,
    ),
]


def _round_stage_tasks(spark, monkeypatch, solve):
    """Run ``solve()`` under a job group of its own; return its result and,
    per round, the task count of the round's last Spark stage (the proposal
    stage), read from the status tracker after each round's ``toPandas``."""
    sc = spark.sparkContext
    tracker = sc.statusTracker()
    group = "test-task-parallel-rounds"
    df_cls = type(spark.range(1))
    collect = df_cls.toPandas
    seen: set[int] = set()
    per_round: list[int] = []

    def traced(self):
        out = collect(self)
        jobs = set(tracker.getJobIdsForGroup(group)) - seen
        seen.update(jobs)
        stages = sorted(s for j in jobs for s in tracker.getJobInfo(j).stageIds)
        per_round.append(tracker.getStageInfo(stages[-1]).numTasks)
        return out

    monkeypatch.setattr(df_cls, "toPandas", traced)
    sc.setJobGroup(group, "task-parallel stage layout")
    try:
        result = solve()
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description",
                    "spark.job.interruptOnCancel"):
            sc.setLocalProperty(key, None)
    return result, per_round


class TestRoundStage:
    @pytest.mark.parametrize("num_partitions", [None, 1, 2, 3])
    @pytest.mark.parametrize("case", range(len(_PINNED)))
    def test_pinned_plan(self, spark, case, num_partitions):
        """The plan does not depend on how the proposal stage is laid out."""
        kwargs, exec_slots, workers, conflicts, rounds = _PINNED[case]
        wl, _, b = _instance(**kwargs)
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3,
                                             num_partitions=num_partitions)
        assert [a.exec_slots for a in r.assignments] == exec_slots
        assert [a.workers for a in r.assignments] == workers
        assert r.conflicts == conflicts
        assert tables["rounds"] == rounds

    @pytest.mark.parametrize("num_partitions", [None, 2, 6])
    def test_proposal_stage_task_count(self, spark, monkeypatch,
                                       num_partitions):
        """Each round's proposal stage runs as min(active tasks,
        num_partitions or defaultParallelism) Spark tasks."""
        wl, _, b = _instance(n_tasks=6, seed=0)
        (_, tables), per_round = _round_stage_tasks(
            spark, monkeypatch,
            lambda: solve_msqm_task_parallel(spark, wl, b, 3,
                                             num_partitions=num_partitions),
        )
        dp = spark.sparkContext.defaultParallelism
        assert per_round[0] == min(6, num_partitions or dp)
        if num_partitions is None and dp >= 2:
            assert per_round[0] > 1
        assert per_round == tables["rounds_log"]["partitions"].tolist()

    def test_rounds_log(self, spark):
        wl, _, b = _instance(n_tasks=8, n_workers=80, m=12, seed=1,
                             dist="gaussian")
        r, tables = solve_msqm_task_parallel(spark, wl, b, 3, chain_len=2)
        log = tables["rounds_log"]
        assert list(log.columns) == [
            "round", "active", "partitions", "proposals", "committed", "bumps",
        ]
        assert log["round"].tolist() == list(range(1, tables["rounds"] + 1))
        assert log["active"].iloc[0] == 8
        assert (log["active"].diff().dropna() <= 0).all()
        dp = spark.sparkContext.defaultParallelism
        assert (log["partitions"] == log["active"].clip(upper=dp)).all()
        assert log["committed"].sum() == r.steps
        assert log["bumps"].sum() == r.conflicts
        assert (log["committed"] <= log["proposals"]).all()
        logged = tables["logging"].groupby("round")["committed"].sum()
        assert log["committed"].tolist() == logged.reindex(
            log["round"], fill_value=0).tolist()

    def test_max_rounds_raises(self, spark):
        wl, _, b = _instance(n_tasks=3, m=10, seed=3)
        _, tables = solve_msqm_task_parallel(spark, wl, b, 3, chain_len=1)
        assert tables["rounds"] >= 2
        with pytest.raises(RuntimeError,
                           match=r"max_rounds=1 rounds with tasks still "
                                 r"active: \[\d"):
            solve_msqm_task_parallel(spark, wl, b, 3, chain_len=1,
                                     max_rounds=1)
