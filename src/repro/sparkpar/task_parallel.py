"""Task-level parallelization of MSQM (Section IV-A-2) on Spark.

The paper's design: a master thread holds a Heartbeat Table (latest heuristic
values), a Conflicting Table (which tasks compete for which worker at which
slot, and the k-th-NN rank they are at), and a Logging Table; worker threads
run per-task greedy steps and synchronize with the master on conflicts; the
committed plan is deterministic — consistent with the serialized Algorithm 1.

Spark expression (DESIGN.md §3): worker threads become a ``mapInPandas``
stage over a per-round state frame (one row per active task: its committed
slots and its bumped ranks as ``array<long>`` columns), laid out as
:func:`repro.sparkpar.stage.stage_partitions` Spark tasks.  Each row rebuilds
the task's Voronoi tree index from that state and emits a *chain* of up to
``chain_len`` sequential greedy proposals (slot, worker rank, cost, Δq/c).
The task contexts reach the executors as one broadcast variable per solve.
Within one task a chain is exactly its greedy continuation; across tasks,
marginal gains are independent except through worker claims — so the master
(driver) merging all chains in descending heuristic order and committing
until a conflict, budget miss, or chain end reproduces the serial greedy
order.  On a conflict the loser's chain is truncated, its rank for that slot
is bumped in the Conflicting Table (1-NN → 2-NN → …), and it re-proposes next
round.  ``priority=False`` disables the paper's priority adjustment (Fig 9f):
chains are merged in task-id order instead of by heuristic value.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark import Broadcast
from pyspark.sql import SparkSession

from repro.core.assignment import TaskContext, build_task_contexts
from repro.core.greedy import Assignment, gain_per_cost
from repro.core.multi_greedy import MultiResult
from repro.core.quality import p_vector, quality_from_p
from repro.core.tree_index import VoronoiTreeIndex
from repro.sparkpar.stage import stage_frame, stage_partitions
from repro.workloads import Workload

#: One row per active task: committed slots in commit order, the slots whose
#: worker rank was bumped and their ranks, and the global budget left.
_STATE_SCHEMA = (
    "task_id long, exec_slots array<long>, bumped_slots array<long>, "
    "bumped_ranks array<long>, rem_budget double"
)
_PROPOSAL_COLUMNS = [
    "task_id", "ord", "slot", "heuristic", "gain", "cost", "worker_id", "rank",
]
_PROPOSAL_SCHEMA = (
    "task_id long, ord long, slot long, heuristic double, gain double, "
    "cost double, worker_id long, rank long"
)


def _make_propose_fn(
    contexts: Broadcast[list[TaskContext]], k: int, t_s: int, chain_len: int
):
    """Executor-side worker threads: the next greedy chain of every task in
    one partition of the state frame."""

    def chain(ctx: TaskContext, row) -> list[tuple]:
        ranks = dict(zip(row.bumped_slots.tolist(), row.bumped_ranks.tolist()))
        rem = float(row.rem_budget)
        costs = np.array(
            [ctx.cost_at_rank(j, ranks.get(j, 0)) for j in range(ctx.m)]
        )
        idx = VoronoiTreeIndex(ctx.m, k, costs, initial_exec=row.exec_slots)
        out = []
        for ord_ in range(chain_len):
            cand = idx.best_candidate(rem, t_s)
            if cand is None:
                break
            r = ranks.get(cand.slot, 0)
            out.append(
                (
                    int(row.task_id),
                    ord_,
                    cand.slot,
                    cand.heuristic,
                    cand.gain,
                    float(costs[cand.slot]),
                    ctx.worker_at_rank(cand.slot, r),
                    r,
                )
            )
            rem -= float(costs[cand.slot])
            idx.commit(cand.slot)
        return out

    def propose(batches):
        ctxs = contexts.value
        for pdf in batches:
            out = [
                p
                for row in pdf.itertuples(index=False)
                for p in chain(ctxs[int(row.task_id)], row)
            ]
            yield pd.DataFrame(out, columns=_PROPOSAL_COLUMNS)

    return propose


def solve_msqm_task_parallel(
    spark: SparkSession,
    wl: Workload,
    budget: float,
    k: int,
    *,
    t_s: int = 4,
    top_r: int = 8,
    chain_len: int = 16,
    priority: bool = True,
    num_partitions: int | None = None,
    max_rounds: int = 1000,
) -> tuple[MultiResult, dict]:
    """MSQM via the master/worker round protocol.  Returns (result, tables)."""
    ctxs = build_task_contexts(wl, top_r=top_r)
    n = len(ctxs)
    exec_slots: list[list[int]] = [[] for _ in range(n)]
    workers_of: list[list[int]] = [[] for _ in range(n)]
    spent_of = np.zeros(n)
    ranks: list[dict[int, int]] = [dict() for _ in range(n)]
    claimed: set[tuple[int, int]] = set()
    rem = float(budget)
    active = set(range(n))
    heartbeat: dict[int, float] = {}
    conflict_rows: list[dict] = []
    log_rows: list[dict] = []
    round_rows: list[dict] = []
    rounds = 0
    contexts = spark.sparkContext.broadcast(ctxs)
    try:
        propose = _make_propose_fn(contexts, k, t_s, chain_len)
        while active:
            if rounds == max_rounds:
                raise RuntimeError(
                    f"task-parallel MSQM stopped after max_rounds="
                    f"{max_rounds} rounds with tasks still active: "
                    f"{sorted(active)}"
                )
            rounds += 1
            tids = sorted(active)
            state = pd.DataFrame(
                {
                    "task_id": tids,
                    "exec_slots": [exec_slots[t] for t in tids],
                    "bumped_slots": [list(ranks[t]) for t in tids],
                    "bumped_ranks": [list(ranks[t].values()) for t in tids],
                    "rem_budget": rem,
                }
            )
            parts = stage_partitions(spark, len(tids), num_partitions)
            props = (
                stage_frame(spark, state, _STATE_SCHEMA, parts)
                .mapInPandas(propose, _PROPOSAL_SCHEMA)
                .toPandas()
            )
            chains: dict[int, list[dict]] = {}
            for tid, grp in props.groupby("task_id"):
                chains[int(tid)] = grp.sort_values("ord").to_dict("records")
            for t in list(active):
                if t not in chains:
                    active.discard(t)  # no affordable candidate: exhausted
            ptr = {t: 0 for t in chains}
            stopped: set[int] = set()
            committed_this_round = 0
            bumps_this_round = 0
            while True:
                # Heads of all live chains.
                heads = [
                    (t, chains[t][ptr[t]])
                    for t in chains
                    if t not in stopped and ptr[t] < len(chains[t])
                ]
                if not heads:
                    break
                if priority:
                    heads.sort(key=lambda e: (-e[1]["heuristic"], e[0]))
                else:
                    heads.sort(key=lambda e: e[0])
                t, e = heads[0]
                slot, worker = int(e["slot"]), int(e["worker_id"])
                cost = float(e["cost"])
                heartbeat[t] = float(e["heuristic"])
                if (worker, slot) in claimed:
                    # Conflict: the element's *gain* is unaffected (quality
                    # depends on slots, not workers), so reprice it at the next
                    # unclaimed rank — the paper's Conflicting-Table bump to the
                    # "k-th lowest cost" worker — and let it re-enter the merge
                    # at its new heuristic position.
                    r = int(e["rank"])
                    while True:
                        r += 1
                        w = ctxs[t].worker_at_rank(slot, r)
                        if w == -1 or (w, slot) not in claimed:
                            break
                    ranks[t][slot] = r
                    bumps_this_round += 1
                    conflict_rows.append(
                        {"task_id": t, "slot": slot, "bumped_to_rank": r + 1,
                         "round": rounds}
                    )
                    log_rows.append(
                        {"round": rounds, "task_id": t, "slot": slot,
                         "heuristic": float(e["heuristic"]), "committed": False,
                         "reason": "conflict"}
                    )
                    if w == -1:
                        # No workers left for this slot: the rest of the chain
                        # assumed it executed — truncate, re-propose next round.
                        stopped.add(t)
                    else:
                        new_cost = ctxs[t].cost_at_rank(slot, r)
                        e["rank"] = r
                        e["worker_id"] = w
                        e["cost"] = new_cost
                        e["heuristic"] = gain_per_cost(float(e["gain"]), new_cost)
                    continue
                if cost > rem:
                    stopped.add(t)
                    log_rows.append(
                        {"round": rounds, "task_id": t, "slot": slot,
                         "heuristic": float(e["heuristic"]), "committed": False,
                         "reason": "budget"}
                    )
                    continue
                claimed.add((worker, slot))
                exec_slots[t].append(slot)
                workers_of[t].append(worker)
                spent_of[t] += cost
                rem -= cost
                ptr[t] += 1
                committed_this_round += 1
                log_rows.append(
                    {"round": rounds, "task_id": t, "slot": slot,
                     "heuristic": float(e["heuristic"]), "committed": True,
                     "reason": "ok"}
                )
            round_rows.append(
                {"round": rounds, "active": len(tids), "partitions": parts,
                 "proposals": len(props), "committed": committed_this_round,
                 "bumps": bumps_this_round}
            )
            if committed_this_round == 0 and bumps_this_round == 0:
                break  # no progress and no rank changes: terminate
    finally:
        contexts.destroy()

    assignments = []
    for t in range(n):
        order = np.argsort(exec_slots[t])
        slots = [exec_slots[t][i] for i in order]
        ws = [workers_of[t][i] for i in order]
        q = quality_from_p(p_vector(np.asarray(slots, np.int64), wl.m, k))
        assignments.append(
            Assignment(
                task_id=t, exec_slots=slots, workers=ws,
                cost=float(spent_of[t]), quality=q,
            )
        )
    qs = [a.quality for a in assignments]
    tables = {
        "heartbeat": pd.DataFrame(
            {"task_id": list(heartbeat), "heuristic": list(heartbeat.values())}
        ),
        "conflicting": pd.DataFrame(conflict_rows),
        "logging": pd.DataFrame(log_rows),
        "rounds_log": pd.DataFrame(round_rows),
        "rounds": rounds,
    }
    result = MultiResult(
        assignments=assignments,
        q_sum=float(sum(qs)),
        q_min=float(min(qs)) if qs else 0.0,
        total_cost=float(spent_of.sum()),
        conflicts=len(conflict_rows),
        steps=sum(len(a.exec_slots) for a in assignments),
        stats={"rounds": rounds},
    )
    return result, tables
