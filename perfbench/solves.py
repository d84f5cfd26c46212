"""The benchmark's four workloads: instance generation and one solve each.

A solve runs from an already-generated ``Workload`` to a plan, so
``build_task_contexts`` is inside every solve.  Each solver's result is
turned into a :class:`Plan`, which ``plancheck`` verifies without the solver.

Layers are reached through their modules (``assignment.build_task_contexts``,
not a name imported here), so the traced run's wrappers see these calls.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import workloads
from repro.core import assignment, multi_greedy, tree_index
from repro.sparkpar import task_parallel
from repro.stcc import spatio_temporal

#: Interpolation order and leaf size: the paper's defaults (DEFAULT_K/TS).
K = 3
T_S = 4
#: STCC weights of Fig 11.
W_S, W_T = 0.3, 0.7


@dataclass(frozen=True)
class Instance:
    """One solver input: a generated workload and its absolute budget."""

    label: str
    wl: workloads.Workload
    budget: float


@dataclass
class Plan:
    """A solver's plan in one shape for every workload.

    ``triples`` holds (task, slot, worker); it is ``None`` when the solver did
    not say which workers it used.  ``task_cost``/``task_quality`` are the
    per-task figures the solver reported (``None`` where it reports only
    totals).  ``stats`` carries the solver's own counters for the traced run.
    """

    kind: str  # "temporal" (Eqs 1-3) or "stcc" (Appendix C)
    pairs: list[tuple[int, int]]
    triples: list[tuple[int, int, int]] | None
    task_cost: dict[int, float] | None
    total_cost: float
    task_quality: dict[int, float] | None
    objective: float
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Spec:
    """How a workload generates its instances and solves one."""

    name: str
    n_instances: int
    gen: dict
    budget_fracs: tuple[float, ...]
    uses_spark: bool
    solve: Callable[[Instance, object], Plan]


def _from_assignments(assignments, objective: float) -> Plan:
    pairs, triples = [], []
    for a in assignments:
        for s, w in zip(a.exec_slots, a.workers):
            pairs.append((int(a.task_id), int(s)))
            triples.append((int(a.task_id), int(s), int(w)))
    tree = {}
    for a in assignments:
        for key in ("candidates_evaluated", "candidates_total",
                    "nodes_expanded", "interp_ops"):
            tree[key] = tree.get(key, 0) + int(a.stats.get(key, 0))
    return Plan(
        kind="temporal",
        pairs=pairs,
        triples=triples,
        task_cost={int(a.task_id): float(a.cost) for a in assignments},
        total_cost=float(sum(a.cost for a in assignments)),
        task_quality={int(a.task_id): float(a.quality) for a in assignments},
        objective=float(objective),
        stats={"tree_index": tree},
    )


def solve_single_star(inst: Instance, spark) -> Plan:
    ctx = assignment.build_task_contexts(inst.wl)[0]
    a = tree_index.solve_sqm_approx_star(ctx, inst.budget, K, t_s=T_S)
    return _from_assignments([a], a.quality)


def solve_msqm(inst: Instance, spark) -> Plan:
    ctxs = assignment.build_task_contexts(inst.wl)
    r = multi_greedy.solve_msqm_serial(ctxs, inst.budget, K, t_s=T_S)
    plan = _from_assignments(r.assignments, r.q_sum)
    plan.stats.update(steps=r.steps, bumps=r.conflicts)
    return plan


def solve_spark_taskpar(inst: Instance, spark) -> Plan:
    r, tables = task_parallel.solve_msqm_task_parallel(
        spark, inst.wl, inst.budget, K, t_s=T_S
    )
    plan = _from_assignments(r.assignments, r.q_sum)
    log = tables["logging"]
    plan.stats.update(
        steps=r.steps,
        bumps=r.conflicts,
        rounds=int(tables["rounds"]),
        committed=int(log["committed"].sum()) if len(log) else 0,
    )
    return plan


def solve_sapprox(inst: Instance, spark) -> Plan:
    ctxs = assignment.build_task_contexts(inst.wl)
    # StccResult names no workers, so record each claim as the solver makes
    # it; without the claim hook the plan check falls back to totals only.
    claim = getattr(spatio_temporal, "_claim", None)
    claims: list[tuple[int, int, int]] = []

    def recording_claim(ctxs_, ranks, claimed, i, slot):
        w = ctxs_[i].worker_at_rank(slot, ranks[i].get(slot, 0))
        claims.append((int(ctxs_[i].task_id), int(slot), int(w)))
        return claim(ctxs_, ranks, claimed, i, slot)

    if claim is not None:
        spatio_temporal._claim = recording_claim
    try:
        r = spatio_temporal.solve_stcc_greedy(
            ctxs, inst.budget, K, w_s=W_S, w_t=W_T, domain=inst.wl.domain
        )
    finally:
        if claim is not None:
            spatio_temporal._claim = claim
    ids = [int(c.task_id) for c in ctxs]
    pairs = [(ids[i], int(s)) for i, ex in enumerate(r.exec_sets) for s in ex]
    return Plan(
        kind="stcc",
        pairs=pairs,
        triples=claims if claim is not None else None,
        task_cost=None,
        total_cost=float(r.total_cost),
        task_quality={ids[i]: float(q) for i, q in enumerate(r.q_per_task)},
        objective=float(r.q_sum),
        stats={"steps": len(pairs)},
    )


SPECS = {
    s.name: s
    for s in (
        Spec("single-star", 6,
             dict(n_tasks=1, n_workers=1000, m=300, dist="uniform"),
             (0.125, 0.25, 0.5), False, solve_single_star),
        # Clustered tasks for heavy rank bumps (~1000 a solve against ~400
        # for uniform tasks).  Not ``poi``: it clips tasks and workers onto
        # the domain corners, where a zero travel cost makes
        # VoronoiTreeIndex.exact_heuristic divide by zero (an open solver
        # defect); ``zipf`` draws every task uniformly inside a grid cell and
        # clips none.
        Spec("msqm-zipf", 6,
             dict(n_tasks=32, n_workers=1500, m=60, dist="zipf"),
             (0.25,), False, solve_msqm),
        Spec("spark-taskpar", 4,
             dict(n_tasks=16, n_workers=2000, m=100, dist="uniform"),
             (0.25,), True, solve_spark_taskpar),
        Spec("sapprox", 12,
             dict(n_tasks=4, n_workers=400, m=20, dist="uniform"),
             (0.25,), False, solve_sapprox),
    )
}


def make_instances(spec: Spec, seed: int) -> list[Instance]:
    """The fixed instance list a run cycles through, derived from ``seed``.

    Lists are as long as an 18 s run can complete at least once while the
    host slows the solver ~1.5x (1 to 1.5 cycles), so every run times every
    instance and a slow run does not drop the last ones.

    The budget is a fraction of the average full-execution task cost times
    the task count, as in the paper's experiments.
    """
    out = []
    for i in range(spec.n_instances):
        wl = workloads.gen_workload(**spec.gen, seed=seed * 1000 + i)
        avg = assignment.average_task_cost(assignment.build_task_contexts(wl))
        for frac in spec.budget_fracs:
            out.append(Instance(f"i{i}/b{frac}", wl, frac * avg * wl.n_tasks))
    return out
