"""Group-level parallelization of MSQM (Section IV-A-1) on Spark.

Independent conflict groups (from :mod:`repro.sparkpar.conflict_graph`) are
optimized concurrently: a ``mapInPandas`` stage over one row per group id,
laid out as :func:`repro.sparkpar.stage.stage_partitions` Spark tasks, runs
the serial MSQM greedy on each group's tasks.  The global budget is split
across groups proportionally to group size (the paper does not specify the
split — DESIGN.md §5).

The per-group result rows (one per executed subtask, plus a sentinel
``slot = −1`` row carrying the quality of tasks with no executions, each
carrying its group's rank-bump count) are reassembled into a
:class:`repro.core.multi_greedy.MultiResult` on the driver.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.assignment import build_task_contexts
from repro.core.greedy import Assignment
from repro.core.multi_greedy import MultiResult, solve_msqm_serial
from repro.sparkpar.conflict_graph import build_groups
from repro.sparkpar.stage import stage_frame, stage_partitions
from repro.workloads import Workload

_OUT_COLUMNS = [
    "task_id", "group_id", "slot", "worker_id", "cost", "quality", "bumps",
]
_OUT_SCHEMA = (
    "task_id long, group_id long, slot long, worker_id long, "
    "cost double, quality double, bumps long"
)


def solve_msqm_group_parallel(
    spark: SparkSession,
    wl: Workload,
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    top_r: int = 8,
    num_partitions: int | None = None,
    use_index: bool = True,
) -> tuple[MultiResult, dict]:
    """MSQM via per-conflict-group parallel greedy.  Returns (result, stats)."""
    groups, _, gstats = build_groups(spark, wl, top_r=top_r)
    tasks = wl.tasks.merge(groups, on="task_id")
    n_total = wl.n_tasks
    workers_pdf = wl.workers
    m, domain = wl.m, wl.domain

    def run_group(gid: int) -> pd.DataFrame:
        pdf = tasks[tasks["group_id"] == gid]
        sub_wl = Workload(
            tasks=pdf[["task_id", "x", "y", "m"]].reset_index(drop=True),
            workers=workers_pdf,
            m=m,
            domain=domain,
        )
        ctxs = build_task_contexts(sub_wl, top_r=top_r)
        gb = budget * len(pdf) / n_total
        res = solve_msqm_serial(ctxs, gb, k, t_s=t_s, use_index=use_index)
        rows = []
        for a in res.assignments:
            if a.exec_slots:
                for slot, worker in zip(a.exec_slots, a.workers):
                    rows.append((a.task_id, gid, slot, worker, a.cost,
                                 a.quality, res.conflicts))
            else:
                rows.append((a.task_id, gid, -1, -1, 0.0, a.quality,
                             res.conflicts))
        return pd.DataFrame(rows, columns=_OUT_COLUMNS)

    def run_groups(batches):
        for pdf in batches:
            for gid in pdf["group_id"]:
                yield run_group(int(gid))

    gids = pd.DataFrame({"group_id": sorted(tasks["group_id"].unique())})
    parts = stage_partitions(spark, len(gids), num_partitions)
    out = (
        stage_frame(spark, gids, "group_id long", parts)
        .mapInPandas(run_groups, _OUT_SCHEMA)
        .toPandas()
    )
    gstats["partitions"] = parts

    assignments = []
    for tid, grp in out.groupby("task_id"):
        slots = sorted(int(s) for s in grp["slot"] if s >= 0)
        workers = [
            int(w)
            for s, w in sorted(zip(grp["slot"], grp["worker_id"]))
            if s >= 0
        ]
        assignments.append(
            Assignment(
                task_id=int(tid),
                exec_slots=slots,
                workers=workers,
                cost=float(grp["cost"].iloc[0]) if len(slots) else 0.0,
                quality=float(grp["quality"].iloc[0]),
            )
        )
    qs = [a.quality for a in assignments]
    result = MultiResult(
        assignments=assignments,
        q_sum=float(sum(qs)),
        q_min=float(min(qs)) if qs else 0.0,
        total_cost=float(sum(a.cost for a in assignments)),
        conflicts=int(out.groupby("group_id")["bumps"].first().sum()),
        steps=sum(len(a.exec_slots) for a in assignments),
        stats=dict(gstats),
    )
    return result, gstats
