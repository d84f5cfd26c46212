"""Solver-independent plan checks and the plan digest.

For every plan: no (worker, slot) claimed twice and no (task, slot)
committed twice; each worker active at its slot in ``wl.workers``; each
task's cost equal to the sum of Euclidean task-to-worker distances; total
cost within budget; and the reported quality equal to a recomputation with
``repro.core.quality.quality`` (``stcc_quality`` for STCC plans).
"""
from __future__ import annotations

import hashlib
import math
from collections import defaultdict

import numpy as np

from repro.core.quality import quality
from repro.stcc.spatio_temporal import stcc_quality

from solves import K, W_S, W_T, Instance, Plan

#: Relative tolerance for recomputed costs and qualities.
TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


class PlanChecker:
    """Checks plans for one instance; built during set-up."""

    def __init__(self, inst: Instance):
        wl = inst.wl
        self.inst = inst
        self.task_xy = {
            int(t): (float(x), float(y))
            for t, x, y in zip(wl.tasks["task_id"], wl.tasks["x"], wl.tasks["y"])
        }
        w = wl.workers
        self.worker_xy = {
            (int(i), int(s)): (float(x), float(y))
            for i, s, x, y in zip(w["worker_id"], w["slot"], w["x"], w["y"])
        }

    def check(self, plan: Plan) -> list[str]:
        """All violations found in ``plan`` (empty when it passes)."""
        inst, errs = self.inst, []
        if len(set(plan.pairs)) != len(plan.pairs):
            errs.append("a (task, slot) is committed twice")
        if plan.triples is not None:
            errs += self._check_workers(plan)
        if plan.task_cost is not None and not _close(
            sum(plan.task_cost.values()), plan.total_cost
        ):
            errs.append("task costs do not add up to the total cost")
        if plan.total_cost > inst.budget * (1 + TOL):
            errs.append(f"total cost {plan.total_cost} > budget {inst.budget}")
        errs += self._check_quality(plan)
        return errs

    def _check_workers(self, plan: Plan) -> list[str]:
        errs = []
        if sorted(plan.pairs) != sorted((t, s) for t, s, _ in plan.triples):
            errs.append("worker list does not match the executed slots")
        ws = [(w, s) for _, s, w in plan.triples]
        if len(set(ws)) != len(ws):
            errs.append("a (worker, slot) is claimed twice")
        cost: dict[int, float] = defaultdict(float)
        for t, s, w in plan.triples:
            pos = self.worker_xy.get((w, s))
            if pos is None:
                errs.append(f"worker {w} is not active at slot {s}")
                continue
            tx, ty = self.task_xy[t]
            cost[t] += math.hypot(pos[0] - tx, pos[1] - ty)
        if plan.task_cost is None:
            if not _close(sum(cost.values()), plan.total_cost):
                errs.append("total cost is not the sum of travel distances")
        else:
            for t, c in plan.task_cost.items():
                if not _close(cost.get(t, 0.0), c):
                    errs.append(f"task {t}: cost {c} != distance sum {cost.get(t, 0.0)}")
        return errs

    def _check_quality(self, plan: Plan) -> list[str]:
        wl, errs = self.inst.wl, []
        slots: dict[int, list[int]] = defaultdict(list)
        for t, s in plan.pairs:
            slots[t].append(s)
        if plan.kind == "stcc":
            ids = [int(t) for t in wl.tasks["task_id"]]
            locs = wl.tasks[["x", "y"]].to_numpy(np.float64)
            q, q_sum = stcc_quality([set(slots[t]) for t in ids], locs, wl.m, K,
                                    W_S, W_T, float(wl.domain * np.sqrt(2)))
            expect = dict(zip(ids, map(float, q)))
        else:
            expect = {t: quality(slots[t], wl.m, K) for t in plan.task_quality}
            q_sum = sum(expect.values())
        for t, q_rep in plan.task_quality.items():
            if not _close(q_rep, expect[t]):
                errs.append(f"task {t}: quality {q_rep} != recomputed {expect[t]}")
        if not _close(plan.objective, q_sum):
            errs.append(f"objective {plan.objective} != recomputed {q_sum}")
        return errs


def digest(plan: Plan) -> str:
    """Hash of the sorted (task, slot, worker) triples (worker −1 if unknown)."""
    triples = plan.triples or [(t, s, -1) for t, s in plan.pairs]
    return hashlib.sha256(repr(sorted(triples)).encode()).hexdigest()


def check_records(records, checkers, digests) -> tuple[int, list[str]]:
    """Failures among ``records``: raised, failed the plan check, or a plan
    for an instance that differs from the one first returned for it (first
    digests are kept in ``digests``)."""
    failed, notes = 0, []
    for n, rec in enumerate(records):
        if rec["err"] is not None:
            errs = [rec["err"].strip().splitlines()[-1]]
        else:
            errs = checkers[rec["inst"]].check(rec["plan"])
            d = digest(rec["plan"])
            if digests.setdefault(rec["inst"], d) != d:
                errs.append("plan differs from an earlier solve of this instance")
        if errs:
            failed += 1
            notes += [f"solve {n} (instance {rec['inst']}): {e}" for e in errs[:3]]
    return failed, notes
