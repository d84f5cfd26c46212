"""TCSC solve benchmark: one client, closed loop, one solve after another.

Usage (from the repository root):

    python3 perfbench/run.py --workload single-star --seed 0 --seconds 18 --trace 0

A solve runs from an already-generated ``Workload`` to a checked plan.  The
run cycles through a fixed list of instances generated from ``--seed``.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends the first
half of the time untraced and the second half with every layer's public
functions wrapped, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result; metric names
and units come from ``BENCHMARK.json``.

Timings are adjusted for CPU contention.  On a shared host another tenant's
load on the same physical core slows this process by up to ~1.6x, flipping
within a second and drifting over minutes, which moves whole runs by ±20 %.
While a solve runs, a timer signal every ``SAMPLE_EVERY_S`` runs a fixed
pure-Python loop (``_spin``) on the solving thread and times it.  A solve's
adjusted time is its wall-clock time (less the loops) × the mean over its
samples of (``SPIN_REF_S`` ÷ sample): its time on a CPU that runs the loop
in ``SPIN_REF_S``, this benchmark's uncontended reference speed.  Set-up is
sampled and adjusted the same way.  Raw wall-clock figures and the run's
contention factor are printed beside the adjusted ones.  Work the program
left running on the solving CPU would slow the samples and be adjusted
away; in the traced run the loops fall inside the spans.

End-to-end metrics:

* ``setup_s`` — process start to the first timed solve: imports, the Spark
  session (spark-taskpar only), instance generation (median of
  ``SETUP_REPEATS``) and one warm-up solve;
* ``solves_per_s`` — solves completed ÷ adjusted timed wall time (the wall
  time divided by the run's contention factor);
* ``solve_s_p50`` / ``solve_s_tail`` — median adjusted solve time and the
  highest percentile with ``TAIL_BEYOND`` solves beyond it (printed with the
  count);
* ``plan_q`` — mean objective of the returned plans (``quality`` for one
  task, ``q_sum`` otherwise);
* ``ok_frac`` — 1 − failed_frac, the share of attempted solves that returned
  a plan passing ``plancheck``; failed_frac itself is printed next to it;
* ``peak_rss_mb`` — peak RSS of this (the driver) Python process.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Spans and Spark scratch space; ignored by git.
OUT = ROOT / ".perfbench_out"
#: Set-up repetitions whose median counts towards ``setup_s``.
SETUP_REPEATS = 3
#: Solves beyond the reported tail percentile (choosing-metrics guide).
TAIL_BEYOND = 10
#: Contention sampling period, and iterations of one sample loop.
SAMPLE_EVERY_S = 0.02
SPIN_ITERS = 5_000
#: Reference time of one sample loop: its fastest time over 3000 loops on
#: each CPU of a 4-vCPU Intel Xeon (Sapphire Rapids) KVM guest, Python 3.11.
SPIN_REF_S = 0.35e-3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _tail(durs: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` solves
    beyond it (nearest rank), but never below the upper median."""
    n = len(durs)
    p = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(math.ceil(p / 100 * n), n // 2 + 1)
    return sorted(durs)[rank - 1], p


def _spin() -> float:
    """Seconds one fixed pure-Python loop takes on the current CPU."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_ITERS):
        x += i * i % 7
    return time.perf_counter() - t0


class ContentionSampler:
    """Times ``_spin`` on the main thread every ``SAMPLE_EVERY_S`` of wall
    time while started, and once on start so that nothing goes unsampled."""

    def __init__(self):
        self.spins: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.spins.append(_spin())

    def start(self) -> None:
        self.spins = [_spin()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def speed_ratio(spins: list[float]) -> float:
    """Mean of ``SPIN_REF_S`` ÷ sample: adjusted time ÷ raw time."""
    return statistics.fmean(SPIN_REF_S / s for s in spins)


def run_loop(spec, instances, seconds, spark, probe=None, tracer=None):
    """Closed loop for ``seconds``; one record per attempted solve.  Solve
    and wall times leave out the contention samples."""
    records = []
    sampling = 0.0
    sampler = ContentionSampler()
    t_begin = time.perf_counter()
    while True:
        i = len(records)
        inst_idx = i % len(instances)
        if probe is not None:
            probe.begin()
        scope = tracer.solve(i) if tracer is not None else contextlib.nullcontext()
        err = plan = None
        with scope, sampler:
            t0 = time.perf_counter()
            try:
                plan = spec.solve(instances[inst_idx], spark)
            except Exception:  # a failed solve is counted, the run goes on
                err = traceback.format_exc()
            t1 = time.perf_counter()
        spins = sampler.spins
        sampling += sum(spins)
        rec = {"inst": inst_idx, "dur": t1 - t0 - sum(spins[1:]), "plan": plan,
               "err": err, "spins": spins}
        if tracer is not None and probe is not None:
            rec["spark"] = probe.solve_report()
        records.append(rec)
        if time.perf_counter() - t_begin >= seconds:
            break
    wall = time.perf_counter() - t_begin - sampling
    return records, wall


def adjust(records) -> float:
    """Set each record's contention-adjusted duration ``adj``; return the
    run's contention factor (raw ÷ adjusted solve time), which divides the
    wall time into the adjusted wall time."""
    for r in records:
        r["adj"] = r["dur"] * speed_ratio(r["spins"])
    return sum(r["dur"] for r in records) / sum(r["adj"] for r in records)


def e2e_metrics(records, wall, setup, failed) -> tuple[dict, dict]:
    factor = adjust(records)
    done = [r for r in records if r["err"] is None]
    durs = [r["adj"] for r in done] or [r["adj"] for r in records]
    raw = [r["dur"] for r in done] or [r["dur"] for r in records]
    tail, p = _tail(durs)
    vals = {
        "setup_s": setup["setup_s"],
        "solves_per_s": len(done) / (wall / factor),
        "solve_s_p50": statistics.median(durs),
        "solve_s_tail": tail,
        "plan_q": statistics.fmean(r["plan"].objective for r in done) if done else 0.0,
        "ok_frac": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": "raw: import {import_s:.3f} + session {session_s:.3f} + "
                   "generate {generate_s:.3f} (median of {n}) + warm-up "
                   "{warmup_s:.3f} = {raw_s:.3f}; contention factor {factor:.3f}"
                   .format(n=SETUP_REPEATS, **setup),
        "solves_per_s": f"{len(done)} solves in {wall:.3f} s wall, one client; "
                        f"contention factor {factor:.3f}; raw "
                        f"{len(done) / wall:.4g} solves/s",
        "solve_s_p50": f"raw {statistics.median(raw):.4g} s",
        "solve_s_tail": f"p{p}, n={len(durs)}; raw {_tail(raw)[0]:.4g} s",
        "ok_frac": f"failed_frac = {failed / len(records):.4g} "
                   f"({failed} of {len(records)})",
    }
    return vals, notes


def layer_metrics(records, tracer, sps_untraced, sps_traced, setup) -> dict:
    """Per-solve means of the traced half, plus whole-run ratios."""
    n = len(records)
    span = tracer.summary()

    def s(name, key="s"):
        return span.get(name, {}).get(key, 0) / n

    stats = [r["plan"].stats for r in records if r["plan"] is not None]
    tree = {k: sum(st.get("tree_index", {}).get(k, 0) for st in stats)
            for k in ("candidates_evaluated", "candidates_total",
                      "nodes_expanded", "interp_ops")}
    out = {
        "workloads.gen_s": setup["generate_s"],
        "assignment.build_s": s("assignment.build"),
        "assignment.build_calls": s("assignment.build", "calls"),
        "quality.partial_quality_s": s("quality.partial_quality"),
        "quality.partial_quality_calls": s("quality.partial_quality", "calls"),
        "quality.knn_distances_s": s("quality.knn_distances"),
        "quality.knn_distances_calls": s("quality.knn_distances", "calls"),
        "tree_index.pruned_frac": (1 - tree["candidates_evaluated"]
                                   / tree["candidates_total"])
        if tree["candidates_total"] else 0.0,
        "trace.overhead_x": sps_untraced / sps_traced,
    }
    for op in ("init", "best_candidate", "exact_heuristic", "commit", "update_cost"):
        out[f"tree_index.{op}_s"] = s(f"tree_index.{op}")
        out[f"tree_index.{op}_calls"] = s(f"tree_index.{op}", "calls")
    for k, v in tree.items():
        out[f"tree_index.{k}"] = v / n

    msqm = span.get("multi_greedy.solve_msqm_serial", {}).get("calls", 0) > 0
    steps = sum(st.get("steps", 0) for st in stats) if msqm else 0
    bumps = sum(st.get("bumps", 0) for st in stats) if msqm else 0
    out.update({
        "multi_greedy.self_s": s("multi_greedy.solve_msqm_serial", "self_s"),
        "multi_greedy.steps": steps / n,
        "multi_greedy.bumps": bumps / n,
        "multi_greedy.bumps_per_step": bumps / steps if steps else 0.0,
        "multi_greedy.best_candidate_per_step":
            span.get("tree_index.best_candidate", {}).get("calls", 0) / steps
            if steps else 0.0,
    })

    sp = [r["spark"] for r in records if "spark" in r]
    rounds = sum(st.get("rounds", 0) for st in stats)
    proposals = sum(x["proposals"] for x in sp)
    stage_tasks = [t for x in sp for t in x["stage_tasks"]]
    state = [b for x in sp for b in x["state_bytes"]]
    closure = [b for x in sp for b in x["closure_bytes"]]
    out.update({
        "task_parallel.rounds": rounds / n,
        "task_parallel.jobs": sum(x["jobs"] for x in sp) / n,
        "task_parallel.create_df_s": s("task_parallel.create_df"),
        "task_parallel.stage_collect_s": s("task_parallel.stage_collect"),
        "task_parallel.driver_s": s("task_parallel.solve_msqm_task_parallel",
                                    "self_s"),
        "task_parallel.stage_tasks": statistics.fmean(stage_tasks)
        if stage_tasks else 0.0,
        "task_parallel.failed_tasks": sum(x["failed_tasks"] for x in sp) / n,
        "task_parallel.proposals": proposals / n,
        "task_parallel.commit_ratio": sum(st.get("committed", 0) for st in stats)
        / proposals if proposals else 0.0,
        "task_parallel.conflicts": sum(st.get("bumps", 0) for st in stats) / n
        if sp else 0.0,
        "task_parallel.closure_bytes": statistics.fmean(closure) if closure else 0.0,
        "task_parallel.state_bytes": statistics.fmean(state) if state else 0.0,
    })

    stcc_steps = sum(st.get("steps", 0) for st in stats) \
        if span.get("stcc.solve_stcc_greedy", {}).get("calls", 0) else 0
    q_calls = span.get("stcc.stcc_quality", {}).get("calls", 0)
    out.update({
        "stcc.quality_calls": q_calls / n,
        "stcc.quality_s": s("stcc.stcc_quality"),
        "stcc.self_s": s("stcc.solve_stcc_greedy", "self_s"),
        "stcc.steps": stcc_steps / n,
        "stcc.quality_calls_per_step": q_calls / stcc_steps if stcc_steps else 0.0,
    })
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    bench = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not bench.is_file():
        print(f"perfbench: needs {SRC / 'repro'} and {bench}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = json.loads(bench.read_text())
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2

    # Samples imports, the Spark session and instance generation.
    sampler = ContentionSampler()
    sampler.start()
    cores = min(4, len(os.sched_getaffinity(0)))
    import sparkenv
    sparkenv.configure_env(SRC, OUT, cores)
    import plancheck
    import solves
    import tracing

    spec = solves.SPECS[args.workload]
    setup = {"import_s": time.perf_counter() - T_START, "session_s": 0.0}
    print(f"workload={spec.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} closed loop, 1 client")

    spark = probe = None
    try:
        if spec.uses_spark:
            t0 = time.perf_counter()
            spark = sparkenv.start_session(SRC, OUT, cores)
            probe = sparkenv.StageProbe(spark)
            setup["session_s"] = time.perf_counter() - t0
            print(f"spark master={spark.sparkContext.master}")
        gen_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            instances = solves.make_instances(spec, args.seed)
            checkers = [plancheck.PlanChecker(i) for i in instances]
            gen_times.append(time.perf_counter() - t0)
        setup["generate_s"] = statistics.median(gen_times)
        sampler.stop()
        t0 = time.perf_counter()
        warm, _ = run_loop(spec, instances[:1], 0, spark, probe)
        setup["warmup_s"] = time.perf_counter() - t0
        setup["raw_s"] = (setup["import_s"] + setup["session_s"]
                          + setup["generate_s"] + setup["warmup_s"])
        ratio = speed_ratio(sampler.spins + warm[0]["spins"])
        setup["factor"] = 1 / ratio
        setup["setup_s"] = setup["raw_s"] * ratio
        print(f"instances: {len(instances)} ({', '.join(i.label for i in instances)})")

        if args.trace == 0:
            records, wall = run_loop(spec, instances, args.seconds, spark, probe)
            traced = []
        else:
            records, wall = run_loop(spec, instances, args.seconds / 2, spark, probe)
            tracer = tracing.Tracer()
            missing = tracing.patch_layers(tracer)
            if probe is not None:
                missing += probe.patch(tracer)
            try:
                traced, wall_t = run_loop(spec, instances, args.seconds / 2,
                                          spark, probe, tracer)
            finally:
                tracer.unpatch()
    finally:
        sampler.stop()
        if spark is not None:
            sparkenv.stop_session(spark)

    digests: dict[int, str] = {}
    failed_warm, notes = plancheck.check_records(warm, checkers, digests)
    failed, notes_timed = plancheck.check_records(records + traced, checkers,
                                                  digests)
    for line in (notes + notes_timed)[:20]:
        print(f"plan check FAILED: {line}")
    plan_digest = hashlib.sha256(
        "".join(digests.get(i, "-") for i in range(len(instances))).encode()
    ).hexdigest()[:16]
    print(f"plan digest: {plan_digest} (sha256 over the sorted (task, slot, "
          f"worker) triples of each of the {len(instances)} instances)")

    attempted = len(records) + len(traced)
    if args.trace == 0:
        vals, hints = e2e_metrics(records, wall, setup, failed)
        wanted = contract["end_to_end"]
        for m in wanted:
            hint = f"  ({hints[m['name']]})" if m["name"] in hints else ""
            print(f"[e2e] {m['name']:<14} = {vals[m['name']]:.6g} {m['unit']}{hint}")
    else:
        sps_u = sum(r["err"] is None for r in records) / wall * adjust(records)
        sps_t = sum(r["err"] is None for r in traced) / wall_t * adjust(traced)
        vals = layer_metrics(traced, tracer, sps_u, sps_t, setup)
        wanted = contract["per_layer"]
        moves = json.loads((Path(__file__).parent / "layer_map.json").read_text())
        print(f"tracing overhead: {sps_u:.4g} adjusted solves/s untraced vs {sps_t:.4g} "
              f"traced ({len(records)} and {len(traced)} solves)")
        print("driver side only: functions run in Spark's Python workers "
              "are not wrapped; closure_bytes and state_bytes are computed sizes")
        if missing:
            print(f"not found, reads 0: {', '.join(missing)}")
        for m in wanted:
            mv = moves.get(m["name"], {})
            pred = (f"  moves {mv['moves']} on {'/'.join(mv['on']) or '-'}; "
                    f"flat on {'/'.join(mv['flat_on']) or '-'}" if mv else "")
            print(f"[layer] {m['name']:<38} = {vals[m['name']]:.6g} {m['unit']}{pred}")
        sp = [r["spark"]["stage_tasks"] for r in traced if "spark" in r]
        if sp:
            print(f"task_parallel.stage_tasks per round, per traced solve: {sp}")
        tracer.write(OUT / f"spans-{spec.name}-seed{args.seed}.npz")
        print(f"spans: {len(tracer.start)} written to "
              f"{OUT.name}/spans-{spec.name}-seed{args.seed}.npz")

    print(json.dumps({
        "correct": failed == 0 and failed_warm == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
