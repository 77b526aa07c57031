package climberbench

import java.lang.management.ManagementFactory
import java.util.concurrent.Executors

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{ClimberIndex, ClimberQuery, Paa}
import repro.exp.Workloads
import repro.scan.Dss

final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

/** One timed query, what it returned, and the code Spark compiled for it.
  * Plan and scan times are split only for traced queries.
  */
final case class QueryRun(qid: Long, query: Array[Double], result: Seq[(Long, Double)],
                          latencyMs: Double, tag: Option[String], planMs: Double, scanMs: Double,
                          codegen: Long) {
  def traced: Boolean = tag.isDefined
}

/** One full build: its tag, wall time, the program's own phase split, and
  * the code Spark compiled for it.
  */
final case class Build(tag: String, seconds: Double, stats: repro.core.BuildStats, traced: Boolean,
                       codegen: Long)

/** Metric values of one run plus its operation counts. */
final case class Result(metrics: Seq[(String, Double)], attempted: Long, failed: Long,
                        errors: Seq[String])

/** The CLIMBER benchmark: RandomWalk 50k at `Workloads.benchParams`,
  * Adaptive-4X queries with K = 500. After the same set-up and warm-up,
  * each workload splits the run's time into equal slots; each slot is one
  * full `ClimberIndex.build` and then queries from one closed-loop client
  * on the new index until the slot ends. The workloads differ in the
  * number of slots:
  *  - `build`: four, so the run is mostly builds;
  *  - `query`: two, so the run is mostly queries.
  * Both report every end-to-end metric; see README.md.
  */
object Bench {
  val Dataset = "RandomWalk"
  val NumSeries = 50000L
  val K = 500
  val Variant: ClimberQuery.Variant = ClimberQuery.Adaptive(4)
  val Params = Workloads.benchParams
  /** Fixed recall probe: the first queries of every stream, drawn with
    * `Workloads.queries`' default seed, so recall is a property of the
    * program alone.
    */
  val RecallQueries = 10
  val SetupRepeats = 3
  /** Untimed queries before the measured window. */
  val WarmupQueries = 40
  /** Full builds in the measured window, per workload. A fixed count, so
    * `build_s` is the median of the same builds in every run.
    */
  val BuildsPerWindow: Map[String, Int] = Map("build" -> 4, "query" -> 2)
  val Names: Seq[String] = BuildsPerWindow.keys.toSeq.sorted

  def run(spark: SparkSession, a: Args): Result = new Bench(spark, a).run()

  /** Classes Spark has generated and compiled with Janino so far. */
  def codegenCompiles: Long = CodegenMetrics.METRIC_COMPILATION_TIME.getCount

  /** CPU seconds the JVM's JIT compilers have spent so far. */
  def jitSeconds: Double = ManagementFactory.getCompilationMXBean.getTotalCompilationTime / 1e3
}

private final class Bench(spark: SparkSession, a: Args) {
  import Bench._

  private val sc = spark.sparkContext
  private val trace: Option[SparkTrace] = if (a.trace) Some(new SparkTrace(spark)) else None
  private val errors = ArrayBuffer[String]()
  private var attempted = 0L
  private var failed = 0L
  private val metrics = ArrayBuffer[(String, Double)]()
  /** The latest build, its index health and each id's partition, and the
    * first build's skeleton.
    */
  private var index: ClimberIndex = _
  private var health: Health = _
  private var partOf: Array[Int] = _
  private var reference: String = _

  /** Count one operation; it failed if `problems` is non-empty. */
  private def record(problems: Seq[String]): Unit = {
    attempted += 1
    if (problems.nonEmpty) { failed += 1; errors ++= problems }
  }

  private def put(name: String, v: Double): Unit = metrics += name -> v

  /** Log a phase boundary with the JVM's uptime, JIT and GC seconds and
    * Spark's generated classes so far, so a run's time and warm-up show.
    */
  private def phase(what: String): Unit = {
    val gcMs = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
    Console.err.println(f"[perfbench] ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%7.1f s  " +
      f"(JIT $jitSeconds%.1f s, GC ${gcMs / 1e3}%.1f s, codegen $codegenCompiles)  $what")
  }

  def run(): Result = {
    phase("session started")

    // Set-up: materialise the dataset SetupRepeats times (median), then the
    // exact ground truth of the recall probe with the distributed scan.
    var df: DataFrame = null
    val genS = (1 to SetupRepeats).map { _ =>
      if (df != null) df.unpersist(blocking = true)
      val (d, s) = Workloads.timed(Workloads.dataset(spark, Dataset, NumSeries))
      val rows = d.count()
      record(if (rows == NumSeries) Nil else Seq(s"dataset has $rows rows"))
      df = d
      s
    }
    val probe = Workloads.queries(Dataset, NumSeries, RecallQueries)
    val (truth, truthS) = Workloads.timed(Dss.knnBatch(spark, df, probe, K))
    record(probe.collect { case (qid, _) if truth.get(qid).map(_.size) != Some(K) =>
      s"truth of query $qid has ${truth.get(qid).map(_.size)} ids" })
    phase("set-up done")
    put("setup_s", Stats.median(genS) + truthS)
    put("series.generate_s", Stats.median(genS))
    put("scan.truth_s", truthS)

    // Warm-up, untimed: a build, WarmupQueries queries from one client per
    // core, and another build. A JVM's first two builds run about 2.5x and
    // 1.5x slower than later ones (JIT of the program, and of the code
    // Spark generates for the build's plans). The first queries run about
    // 1.5x slower: Spark generates a scan's code per planned partition set
    // (inlined literals), so until most sets have been seen nearly every
    // query compiles code.
    build(df, "warmup-1", traced = false)
    val pool = Workloads.queries(Dataset, NumSeries, 4000, a.seed)
      .filterNot { case (qid, _) => truth.contains(qid) }
    check(concurrently(pool.take(WarmupQueries)))
    build(df, "warmup-2", traced = false)
    phase(s"warm-up done: 2 builds and $WarmupQueries queries")

    val jit0 = jitSeconds
    val t0 = System.nanoTime()
    val (builds, queries, qps) = window(df, (probe ++ pool.drop(WarmupQueries)).iterator)
    val jitCores = (jitSeconds - jit0) / ((System.nanoTime() - t0) / 1e9)
    phase("measurement done")

    val probeIds = probe.map(_._1).toSet
    val answered = queries.filter(q => probeIds.contains(q.qid))
      .map(q => q.qid -> q.result.map(_._1)).toMap
    record(if (answered.size == probe.size) Nil else Seq(s"only ${answered.size} probe queries ran"))
    val lat = queries.filterNot(_.traced).map(_.latencyMs)
    val timedBuilds = builds.filterNot(_.traced)
    put("build_s", Stats.median(timedBuilds.map(_.seconds)))
    put("query_p50_ms", Stats.percentile(lat, 50))
    put("query_p90_ms", Stats.percentile(lat, 90))
    put("qps", qps)
    put("recall_at_k", Workloads.meanRecall(answered, truth))
    put("index_mem_mb", cachedBytes(index.data) / 1048576.0)
    put("skeleton_kb", index.stats.skeletonBytes / 1024.0)
    put("ok_frac", (attempted - failed).toDouble / attempted)
    Console.err.println(s"[perfbench] ${a.workload}: ${timedBuilds.size} builds and " +
      s"${lat.size} queries timed, ${builds.size - timedBuilds.size} and ${queries.size - lat.size} traced; " +
      "latency in order (ms): " + queries.map(q => f"${q.latencyMs}%.0f").mkString(" "))

    trace.foreach { t =>
      if (a.workload == "build") {
        val (tb, ub) = builds.partition(_.traced)
        put("trace.overhead_ms", (Stats.median(tb.map(_.seconds)) - Stats.median(ub.map(_.seconds))) * 1e3)
      } else
        put("trace.overhead_ms", Stats.median(queries.filter(_.traced).map(_.latencyMs)) - Stats.median(lat))
      put("jvm.jit_cores", jitCores)
      put("build.codegen_compiles", builds.map(_.codegen.toDouble).sum / builds.size)
      put("query.codegen_compiles", queries.map(_.codegen.toDouble).sum / queries.size)
      layers(t, builds.filter(_.traced), queries.filter(_.traced))
      t.detach()
    }
    Result(metrics.toSeq, attempted, failed, errors.toSeq)
  }

  /** The measured window: `BuildsPerWindow` equal slots of the run's
    * time, each one full build and then queries from `stream` on it until
    * the slot ends (at least one, and the recall probe in the first). In a
    * traced run every second slot is traced. Returns the builds, the
    * queries, and the queries per second of the query blocks.
    */
  private def window(df: DataFrame, stream: Iterator[(Long, Array[Double])])
      : (Seq[Build], Seq[QueryRun], Double) = {
    System.gc()
    val start = System.nanoTime()
    val n = BuildsPerWindow(a.workload)
    val builds = ArrayBuffer[Build]()
    val queries = ArrayBuffer[QueryRun]()
    var queryNs = 0L
    for (i <- 0 until n) {
      val traced = trace.isDefined && i % 2 == 1
      builds += build(df, s"build-$i", traced)
      trace.foreach(_.countingScans(traced))
      val t0 = System.nanoTime()
      val slotEnd = start + ((i + 1) * a.seconds * 1e9 / n).toLong
      val block = serve(stream, slotEnd, traced, math.max(1, RecallQueries - queries.size))
      queryNs += System.nanoTime() - t0
      trace.foreach(_.countingScans(false))
      check(block)
      queries ++= block
      phase(s"slot ${i + 1} of $n")
    }
    phase(s"${builds.size} builds and ${queries.size} queries measured")
    (builds.toSeq, queries.toSeq, queries.size / (queryNs / 1e9))
  }

  /** One full build, replacing the previous index. The build must place
    * each id once and reproduce the run's first skeleton. Traced: its Spark
    * work is charged to `tag`; untraced: the listeners are off.
    */
  private def build(df: DataFrame, tag: String, traced: Boolean): Build = {
    if (index != null) index.data.unpersist(blocking = true)
    trace.foreach(t => if (traced) t.attach() else t.detach())
    val c0 = codegenCompiles
    val (ix, s) = Workloads.timed(
      if (traced) trace.get.tagged(tag)(ClimberIndex.build(spark, df, Params))
      else ClimberIndex.build(spark, df, Params))
    val layout = Checks.layout(ix)
    if (reference == null) reference = Checks.skeletonText(ix)
    val sameSkeleton =
      if (Checks.skeletonText(ix) == reference) Nil else Seq(s"$tag: skeleton differs from the first build")
    record(Checks.placement(layout, ix.skeleton.numPartitions, NumSeries) ++ sameSkeleton)
    index = ix
    health = Checks.health(ix, layout)
    partOf = Checks.partOf(layout)
    Console.err.println(f"[perfbench] $tag%-9s $s%6.2f s (steps 1-3 ${ix.stats.skeletonSec}%.2f s, " +
      f"step 4 ${ix.stats.redistributeSec}%.2f s)${if (traced) ", traced" else ""}")
    Build(tag, s, ix.stats, traced, codegenCompiles - c0)
  }

  /** Check each query's answer against the index it ran on. */
  private def check(queries: Seq[QueryRun]): Unit =
    queries.foreach(q => record(Checks.answer(index, partOf, health.partSizes, q)))

  /** Every query, from one client per core; returns the runs in order. */
  private def concurrently(qs: Seq[(Long, Array[Double])]): Seq[QueryRun] = {
    val pool = Executors.newFixedThreadPool(Runtime.getRuntime.availableProcessors)
    try qs.map { case (qid, q) => pool.submit(() => query(qid, q, traced = false)) }.map(_.get())
    finally pool.shutdown()
  }

  /** Queries from `it`, one at a time, while fewer than `mustRun` have run
    * or until `deadline` (a `nanoTime`).
    */
  private def serve(it: Iterator[(Long, Array[Double])], deadline: Long, traced: Boolean,
                    mustRun: Int): Seq[QueryRun] = {
    val runs = ArrayBuffer[QueryRun]()
    while (it.hasNext && (runs.size < mustRun || System.nanoTime() < deadline)) {
      val (qid, q) = it.next()
      try runs += query(qid, q, traced)
      catch { case NonFatal(e) => record(Seq(s"query $qid: $e")) }
    }
    runs.toSeq
  }

  private def query(qid: Long, q: Array[Double], traced: Boolean): QueryRun = {
    val c0 = codegenCompiles
    if (!traced) {
      val (res, s) = Workloads.timed(ClimberQuery.knn(index, q, K, Variant, qid))
      QueryRun(qid, q, res, s * 1e3, None, 0.0, 0.0, codegenCompiles - c0)
    } else trace.get.tagged(s"query-$qid") {
      val t0 = System.nanoTime()
      val plan = ClimberQuery.planFor(index, q, K, Variant, qid)
      val t1 = System.nanoTime()
      val res = ClimberQuery.scanTopK(index.data, "part", plan.partitions, q, K)
      val t2 = System.nanoTime()
      QueryRun(qid, q, res, (t2 - t0) / 1e6, Some(s"query-$qid"), (t1 - t0) / 1e6, (t2 - t1) / 1e6,
        codegenCompiles - c0)
    }
  }

  /** Spark storage memory held by a cached DataFrame. */
  private def cachedBytes(df: DataFrame): Double = {
    val classic = df.asInstanceOf[org.apache.spark.sql.classic.Dataset[_]]
    val cache = classic.sparkSession.sharedState.cacheManager.lookupCachedData(classic)
      .getOrElse(sys.error("the index data is not cached"))
    val rddId = cache.cachedRepresentation.cacheBuilder.cachedColumnBuffers.id
    sc.getRDDStorageInfo.find(_.id == rddId).map(_.memSize.toDouble)
      .getOrElse(sys.error("no storage info for the cached index"))
  }

  /** Per-layer metrics of a traced run. */
  private def layers(t: SparkTrace, builds: Seq[Build], tq: Seq[QueryRun]): Unit = {
    val h = health
    // Build work, per traced build.
    val bw = t.work(builds.map(_.tag).toSet)
    val nb = math.max(1, bw.size).toDouble
    put("build.skeleton_s", Stats.median(builds.map(_.stats.skeletonSec)))
    put("build.redistribute_s", Stats.median(builds.map(_.stats.redistributeSec)))
    put("build.spark_jobs", bw.map(_.jobs).sum / nb)
    put("build.tasks", bw.map(_.tasks).sum / nb)
    put("build.task_busy_s", bw.map(_.taskBusyMs).sum / 1e3 / nb)
    put("build.shuffle_write_mb", bw.map(_.shuffleWriteBytes).sum / 1048576.0 / nb)
    put("build.gc_s", bw.map(_.gcMs).sum / 1e3 / nb)
    val sites = bw.flatMap(_.jobMsBySite.toSeq).groupMapReduce(_._1)(_._2)(_ + _)
    sites.toSeq.sortBy(-_._2).foreach { case (site, ms) =>
      Console.err.println(f"[perfbench] build job site ${site}%-40s ${ms / nb / 1e3}%8.3f s/build")
    }
    val bySite = sites.toSeq.groupMapReduce(p => SparkTrace.buildPhase(p._1))(_._2)(_ + _)
    SparkTrace.BuildPhases.foreach(ph => put(s"build.job_s.$ph", bySite.getOrElse(ph, 0L) / 1e3 / nb))

    // Query work, per traced query.
    val qWork = t.work(tq.flatMap(_.tag).toSet)
    val nq = math.max(1, tq.size).toDouble
    val plans = tq.map { q =>
      val adaptive = ClimberQuery.planFor(index, q.query, K, Variant, q.qid)
      val (rs, ri) = index.pivots.dual(Paa.of(q.query, index.params.paaW))
      val base = ClimberQuery.plan(index.skeleton, rs, ri, q.qid)
      (adaptive.partitions.length, adaptive.partitions.length > base.partitions.length,
        adaptive.partitions.map(p => h.partSizes(p)).sum)
    }
    val (rowsRead, scans) = t.scanRows
    val rowsPlanned = plans.map(_._3.toDouble).sum / nq
    val readPerQuery = rowsRead.toDouble / math.max(1L, scans)
    val qTasks = qWork.map(_.tasks).sum
    put("query.plan_ms", if (tq.nonEmpty) Stats.median(tq.map(_.planMs)) else 0.0)
    put("query.scan_ms", if (tq.nonEmpty) Stats.median(tq.map(_.scanMs)) else 0.0)
    put("query.parts_planned", plans.map(_._1.toDouble).sum / nq)
    put("query.expanded_frac", plans.count(_._2) / nq)
    put("query.rows_planned", rowsPlanned)
    put("query.rows_read", readPerQuery)
    put("query.read_amplification", if (rowsPlanned > 0) readPerQuery / rowsPlanned else 0.0)
    put("query.spark_jobs", qWork.map(_.jobs).sum / nq)
    put("query.tasks", qTasks / nq)
    put("query.task_busy_ms", qWork.map(_.taskBusyMs).sum / nq)
    put("query.sched_delay_ms", qWork.map(_.schedWaitMs).sum.toDouble / math.max(1, qTasks))

    // Index health of the final index.
    put("index.partitions", h.partitions.toDouble)
    put("index.parts_over_c", h.partsOverC.toDouble)
    put("index.max_occupancy_ratio", h.maxOccupancyRatio)
    put("index.g0_share", h.g0Share)
    put("index.default_inflow_rows", h.defaultInflowRows.toDouble)

    Kernels.measure(index, a.seed).toSeq.sortBy(_._1).foreach { case (k, v) => put(k, v) }
  }
}
