"""How the Spark solvers lay out a stage over independent keys.

Task-parallel (one key per active task) and group-parallel (one key per
conflict group) both run a Python function over a handful of driver-built
rows.  A ``groupBy(key).applyInPandas`` shuffle of so few rows is merged by
AQE into a single partition, so the "parallel" stage runs as one Spark task.
Both solvers therefore build the rows as a local relation and run
``mapInPandas`` over it with a partition count of their own, set by the one
rule below.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def stage_partitions(
    spark: SparkSession, n_keys: int, num_partitions: int | None = None
) -> int:
    """Spark tasks for a stage over ``n_keys`` independent keys: at most one
    per key, and at most ``num_partitions`` (default: the session's
    ``defaultParallelism``, one per core)."""
    cap = num_partitions or spark.sparkContext.defaultParallelism
    return max(1, min(n_keys, cap))


def stage_frame(
    spark: SparkSession, rows: pd.DataFrame, schema: str, partitions: int
) -> DataFrame:
    """``rows`` as a DataFrame of exactly ``partitions`` partitions.

    A local relation scans as min(rows, ``defaultParallelism``) contiguous
    slices, all in the job of the stage that reads it.  Fewer partitions are
    those slices merged by ``coalesce`` (no shuffle); more need a
    round-robin ``repartition``, which adds one JVM-only shuffle job.
    """
    sdf = spark.createDataFrame(rows, schema)
    scan = min(len(rows), spark.sparkContext.defaultParallelism)
    if partitions < scan:
        return sdf.coalesce(partitions)
    if partitions > scan:
        return sdf.repartition(partitions)
    return sdf
