package climberbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.PerfbenchAccess
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.util.QueryExecutionListener

/** Spark work charged to one benchmark operation (one build or one query). */
final class OpWork {
  var jobs = 0
  var tasks = 0
  var taskBusyMs = 0L // sum of executorRunTime
  var schedWaitMs = 0L // sum over tasks of launch − stage submission
  var gcMs = 0L
  var shuffleWriteBytes = 0L
  val jobMsBySite: mutable.Map[String, Long] = mutable.Map.empty.withDefaultValue(0L)
}

/** Listeners the benchmark registers to see what Spark did for each of its
  * calls, without touching program code. The calling thread tags an
  * operation with a local property; every job started under the tag, and
  * every stage and task of that job, is charged to it. Rows read by scans
  * of cached relations come from the finished plans' SQL metrics.
  */
final class SparkTrace(spark: SparkSession) extends SparkListener with QueryExecutionListener {
  private val sc = spark.sparkContext
  private val ops = new ConcurrentHashMap[String, OpWork]()
  private val stageOp = new ConcurrentHashMap[Int, String]()
  private val stageSubmitMs = new ConcurrentHashMap[Int, Long]()
  private val openJobs = new ConcurrentHashMap[Int, (String, String, Long)]()
  private val executionSite = new ConcurrentHashMap[Long, String]()
  private val rows = new AtomicLong()
  private val scans = new AtomicLong()
  @volatile private var countScans = false
  private var attached = false

  /** Charge Spark work started by this thread to `op` while `f` runs. */
  def tagged[T](op: String)(f: => T): T = {
    sc.setLocalProperty(SparkTrace.OpKey, op)
    try f finally sc.setLocalProperty(SparkTrace.OpKey, null)
  }

  def attach(): Unit = if (!attached) {
    sc.addSparkListener(this); spark.listenerManager.register(this); attached = true
  }

  def detach(): Unit = if (attached) {
    drain(); sc.removeSparkListener(this); spark.listenerManager.unregister(this); attached = false
  }

  /** Count rows read by cached-relation scans while on (query phases). */
  def countingScans(on: Boolean): Unit = { drain(); countScans = on }

  def drain(): Unit = PerfbenchAccess.drainListeners(sc)

  /** Work of the operations tagged `tags`, after draining. */
  def work(tags: Set[String]): Seq[OpWork] = {
    drain()
    ops.asScala.collect { case (k, w) if tags.contains(k) => w }.toSeq
  }

  /** (rows read, finished plans) counted while scan counting was on. */
  def scanRows: (Long, Long) = { drain(); (rows.get, scans.get) }

  private def opWork(op: String): OpWork = ops.computeIfAbsent(op, _ => new OpWork)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(SparkTrace.OpKey))).foreach { op =>
      opWork(op).jobs += 1
      e.stageIds.foreach(stageOp.put(_, op))
      openJobs.put(e.jobId, (op, site(e), e.time))
    }

  /** Call site of a job. AQE runs query-stage jobs from a thread pool, so
    * a job of a SQL execution takes the execution's call site.
    */
  private def site(e: SparkListenerJobStart): String =
    Option(e.properties.getProperty(SparkTrace.ExecutionIdKey))
      .flatMap(id => Option(executionSite.get(id.toLong)))
      .getOrElse(SparkTrace.callSite(e))

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => executionSite.put(s.executionId, s.description)
    case _ => ()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(openJobs.remove(e.jobId)).foreach { case (op, site, t0) =>
      opWork(op).jobMsBySite(site) += e.time - t0
    }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    stageSubmitMs.put(e.stageInfo.stageId,
      e.stageInfo.submissionTime.getOrElse(System.currentTimeMillis()))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageOp.get(e.stageId)).foreach { op =>
      val w = opWork(op)
      w.tasks += 1
      Option(stageSubmitMs.get(e.stageId)).foreach { s =>
        w.schedWaitMs += math.max(0L, e.taskInfo.launchTime - s)
      }
      Option(e.taskMetrics).foreach { m =>
        w.taskBusyMs += m.executorRunTime
        w.gcMs += m.jvmGCTime
        w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
    if (countScans) {
      rows.addAndGet(SparkTrace.rowsRead(qe.executedPlan))
      scans.incrementAndGet()
    }

  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
}

object SparkTrace {
  val OpKey = "climberbench.op"
  val ExecutionIdKey = "spark.sql.execution.id"

  private object PlanWalk extends AdaptiveSparkPlanHelper

  /** Physical rows output by the in-memory (cached) table scans of an
    * executed plan. AQE hides the scans inside query stages, which a plain
    * `plan.collect` does not enter, so walk it with AdaptiveSparkPlanHelper.
    */
  def rowsRead(plan: SparkPlan): Long =
    PlanWalk.collect(plan) { case s: InMemoryTableScanExec => s.metrics("numOutputRows").value }.sum

  /** Build phases whose Spark jobs are told apart by call site. */
  val BuildPhases: Seq[String] = Seq("pivots", "aggregate", "redistribute", "other")

  /** Phase of a build job from its call site: pivot selection runs in
    * Pivots.scala, the signature aggregation collects and the Step-4
    * re-distribution counts in ClimberIndex.scala.
    */
  def buildPhase(site: String): String =
    if (site.contains("Pivots.scala")) "pivots"
    else if (site.startsWith("collect at ClimberIndex.scala")) "aggregate"
    else if (site.startsWith("count at ClimberIndex.scala")) "redistribute"
    else "other"

  /** Short call site of a job, e.g. "count at ClimberIndex.scala:101". */
  def callSite(e: SparkListenerJobStart): String =
    Option(e.properties).flatMap(p => Option(p.getProperty("callSite.short")))
      .orElse(e.stageInfos.sortBy(_.stageId).lastOption.map(_.name))
      .getOrElse("unknown")
}
