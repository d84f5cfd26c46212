"""Task-level parallelization of MSQM (Section IV-A-2) on Spark.

The paper's design: a master thread holds a Heartbeat Table (latest heuristic
values), a Conflicting Table (which tasks compete for which worker at which
slot, and the k-th-NN rank they are at), and a Logging Table; worker threads
run per-task greedy steps and synchronize with the master on conflicts; the
committed plan is deterministic — consistent with the serialized Algorithm 1.

Spark expression (DESIGN.md §3): worker threads become a
``groupBy("task_id").applyInPandas`` stage that, each round, rebuilds the
task's Voronoi tree index from its committed state and emits a *chain* of up
to ``chain_len`` sequential greedy proposals (slot, worker rank, cost, Δq/c).
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

import json

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.assignment import TaskContext, build_task_contexts
from repro.core.greedy import Assignment, gain_per_cost
from repro.core.multi_greedy import MultiResult
from repro.core.quality import p_vector, quality_from_p
from repro.core.tree_index import VoronoiTreeIndex
from repro.workloads import Workload

_PROPOSAL_SCHEMA = (
    "task_id long, ord long, slot long, heuristic double, gain double, "
    "cost double, worker_id long, rank long"
)


def _make_propose_fn(ctxs: list[TaskContext], k: int, t_s: int, chain_len: int):
    """Executor-side worker thread: one task's next greedy chain."""

    def propose(pdf: pd.DataFrame) -> pd.DataFrame:
        row = pdf.iloc[0]
        tid = int(row["task_id"])
        ctx = ctxs[tid]
        exec_slots = json.loads(row["exec_json"])
        ranks = json.loads(row["ranks_json"])
        rem = float(row["rem_budget"])
        costs = np.array(
            [ctx.cost_at_rank(j, ranks.get(str(j), 0)) for j in range(ctx.m)]
        )
        idx = VoronoiTreeIndex(ctx.m, k, costs, initial_exec=exec_slots)
        out = []
        for ord_ in range(chain_len):
            cand = idx.best_candidate(rem, t_s)
            if cand is None:
                break
            r = ranks.get(str(cand.slot), 0)
            out.append(
                (
                    tid,
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
        return pd.DataFrame(
            out,
            columns=[
                "task_id", "ord", "slot", "heuristic", "gain",
                "cost", "worker_id", "rank",
            ],
        )

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
    ranks: list[dict[str, int]] = [dict() for _ in range(n)]
    claimed: set[tuple[int, int]] = set()
    rem = float(budget)
    active = set(range(n))
    heartbeat: dict[int, float] = {}
    conflict_rows: list[dict] = []
    log_rows: list[dict] = []
    propose = _make_propose_fn(ctxs, k, t_s, chain_len)
    rounds = 0

    while active and rounds < max_rounds:
        rounds += 1
        state = pd.DataFrame(
            {
                "task_id": sorted(active),
                "exec_json": [json.dumps(exec_slots[t]) for t in sorted(active)],
                "ranks_json": [json.dumps(ranks[t]) for t in sorted(active)],
                "rem_budget": rem,
            }
        )
        sdf = spark.createDataFrame(state)
        if num_partitions:
            sdf = sdf.repartition(num_partitions, "task_id")
        props = (
            sdf.groupBy("task_id")
            .applyInPandas(propose, _PROPOSAL_SCHEMA)
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
            slot, worker, cost = int(e["slot"]), int(e["worker_id"]), float(e["cost"])
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
                ranks[t][str(slot)] = r
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
        if committed_this_round == 0 and bumps_this_round == 0:
            break  # no progress and no rank changes: terminate

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
