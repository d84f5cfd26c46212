"""The benchmark's own Spark session and its outside view of Spark stages.

The session mirrors ``jobs/_session.py`` (Arrow on, broadcast joins off, 64
shuffle partitions, UI off) with console progress off, a ``local[N]`` master
with N ≤ the CPU count, and every scratch directory inside the checkout.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

import pyarrow as pa
from pyspark import cloudpickle


def configure_env(src: Path, scratch: Path, cores: int) -> None:
    """Environment the Spark JVM and its Python workers inherit; must run
    before pyspark launches the JVM."""
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Workers import ``repro`` from the checkout's source tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    # Keep both JVMs (spark-submit's launcher and the driver) out of /tmp.
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory 2g "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )


def start_session(src: Path, scratch: Path, cores: int):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{cores}]")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.executorEnv.PYTHONPATH", str(src))
        .config("spark.local.dir", str(scratch / "spark-local"))
        .config("spark.sql.warehouse.dir", str(scratch / "spark-warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM (and with it the Python workers)
    has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


class StageProbe:
    """Per-solve Spark job group and, in the traced run, per-round job,
    stage and size records read from outside the program."""

    def __init__(self, spark):
        self.spark = spark
        self.sc = spark.sparkContext
        self.group = ""
        self._solves = 0
        self.round_jobs: list[list[int]] = []
        self._seen: set[int] = set()
        self.state_bytes: list[int] = []
        self.closure_bytes: list[int] = []
        self.proposals = 0

    def begin(self) -> None:
        """Tag the next solve's Spark jobs with a job group of its own."""
        self._solves += 1
        self.group = f"perfbench-solve-{self._solves}"
        self.sc.setJobGroup(self.group, f"perfbench solve {self._solves}")
        self.round_jobs, self._seen = [], set()
        self.state_bytes, self.closure_bytes, self.proposals = [], [], 0

    # ``after`` hooks for Tracer.wrap: they run outside the wrapped span.
    def after_create_df(self, args, kwargs, result) -> None:
        data = args[1] if len(args) > 1 else kwargs.get("data")
        if hasattr(data, "columns"):  # the per-round state frame (computed)
            self.state_bytes.append(
                pa.Table.from_pandas(data, preserve_index=False).nbytes
            )

    def after_collect(self, args, kwargs, result) -> None:
        self.proposals += len(result)
        ids = set(self.sc.statusTracker().getJobIdsForGroup(self.group))
        self.round_jobs.append(sorted(ids - self._seen))
        self._seen |= ids

    def after_make_propose(self, args, kwargs, result) -> None:
        # What Spark ships with every round's stage (computed, not observed).
        self.closure_bytes.append(len(cloudpickle.dumps(result)))

    def solve_report(self) -> dict:
        """Jobs, post-shuffle stage tasks per round and failed tasks."""
        st = self.sc.statusTracker()
        stage_tasks, failed, jobs = [], 0, 0
        for ids in self.round_jobs:
            stages = []
            for j in ids:
                info = st.getJobInfo(j)
                if info is None:
                    continue
                jobs += 1
                stages += list(info.stageIds)
            infos = [st.getStageInfo(s) for s in sorted(stages)]
            infos = [i for i in infos if i is not None]
            failed += sum(i.numFailedTasks for i in infos)
            # The round's last stage runs applyInPandas after the shuffle.
            stage_tasks.append(infos[-1].numTasks if infos else 0)
        return {
            "jobs": jobs,
            "stage_tasks": stage_tasks,
            "failed_tasks": failed,
            "proposals": self.proposals,
            "state_bytes": list(self.state_bytes),
            "closure_bytes": list(self.closure_bytes),
        }

    def patch(self, tracer) -> list[str]:
        from repro.sparkpar import task_parallel

        df_cls = type(self.spark.range(1))
        missing = []
        for owner, attr, name, after in (
            (type(self.spark), "createDataFrame", "task_parallel.create_df",
             self.after_create_df),
            (df_cls, "toPandas", "task_parallel.stage_collect", self.after_collect),
            (task_parallel, "_make_propose_fn", "task_parallel.make_propose_fn",
             self.after_make_propose),
        ):
            if not tracer.patch(owner, attr, name, after):
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return missing
