package climberbench

import repro.jobs.JobSession

/** Entry point: `Main --workload <build|query> --seed <n>
  * --seconds <s> --trace <0|1>`. Prints every metric with its unit on
  * stderr and, as the last stdout line, one JSON object with the keys
  * `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
  * or with `--trace 1` the per-layer ones).
  */
object Main {
  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val a = Args(get("workload"), get("seed").toLong, get("seconds").toInt, get("trace") == "1")
    require(Bench.Names.contains(a.workload), s"unknown workload ${a.workload}")
    require(a.seconds >= 1, "--seconds must be at least 1")
    a
  }

  def json(r: Result, names: Seq[(String, String)]): String = {
    val byName = r.metrics.toMap
    val fields = names.map { case (n, unit) =>
      val v = byName.getOrElse(n, Double.NaN)
      require(!v.isNaN && !v.isInfinite, s"metric $n has no finite value")
      s""""$n": {"value": $v, "unit": "$unit"}"""
    }
    s"""{"correct": ${r.failed == 0}, "attempted": ${r.attempted}, "failed": ${r.failed}, """ +
      s""""metrics": {${fields.mkString(", ")}}}"""
  }

  def main(args: Array[String]): Unit = {
    val a = parse(args)
    val spark = JobSession.get("climber-perfbench")
    val r = try Bench.run(spark, a) finally spark.stop()
    val names = if (a.trace) Metrics.PerLayer else Metrics.EndToEnd
    val units = (Metrics.EndToEnd ++ Metrics.PerLayer).toMap
    r.metrics.foreach { case (n, v) => Console.err.println(f"[perfbench] $n%-28s $v%14.4f ${units.getOrElse(n, "")}") }
    r.errors.foreach(e => Console.err.println(s"[perfbench] FAILED: $e"))
    println(json(r, names))
    sys.exit(if (r.failed == 0) 0 else 1)
  }
}

/** Metric names and units, as BENCHMARK.json lists them. */
object Metrics {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "build_s" -> "s", "query_p50_ms" -> "ms", "query_p90_ms" -> "ms",
    "qps" -> "1/s", "recall_at_k" -> "ratio", "index_mem_mb" -> "MB", "skeleton_kb" -> "KB",
    "ok_frac" -> "ratio")

  val PerLayer: Seq[(String, String)] = Seq(
    "series.generate_s" -> "s", "scan.truth_s" -> "s",
    "paa.us_per_rec" -> "us", "pivots.dual_us_per_rec" -> "us",
    "skeleton.place_us_per_rec" -> "us", "skeleton.build_ms" -> "ms",
    "distances.ed_us_per_rec" -> "us",
    "build.skeleton_s" -> "s", "build.redistribute_s" -> "s", "build.spark_jobs" -> "count",
    "build.tasks" -> "count", "build.task_busy_s" -> "s", "build.shuffle_write_mb" -> "MB",
    "build.gc_s" -> "s") ++
    SparkTrace.BuildPhases.map(p => s"build.job_s.$p" -> "s") ++ Seq(
    "query.plan_ms" -> "ms", "query.scan_ms" -> "ms", "query.parts_planned" -> "count",
    "query.expanded_frac" -> "ratio", "query.rows_planned" -> "count",
    "query.rows_read" -> "count", "query.read_amplification" -> "ratio",
    "query.spark_jobs" -> "count", "query.tasks" -> "count", "query.task_busy_ms" -> "ms",
    "query.sched_delay_ms" -> "ms", "query.codegen_compiles" -> "count",
    "build.codegen_compiles" -> "count", "jvm.jit_cores" -> "cores",
    "index.partitions" -> "count", "index.parts_over_c" -> "count",
    "index.max_occupancy_ratio" -> "ratio", "index.g0_share" -> "ratio",
    "index.default_inflow_rows" -> "count",
    "trace.overhead_ms" -> "ms")
}
