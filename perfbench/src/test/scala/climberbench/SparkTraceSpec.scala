package climberbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ClimberIndex, ClimberParams, ClimberQuery}
import repro.exp.Workloads
import repro.series.SeriesGen

/** The benchmark's own probes on a tiny index: physical rows read by a
  * query's cached scan cover at least its planned rows, and the output
  * checks accept real answers and reject a corrupted one.
  */
class SparkTraceSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = SparkSession.builder.master("local[2]").appName("perfbench-test")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()
  private val n = 3000L
  private lazy val index = ClimberIndex.build(spark,
    SeriesGen.generate(spark, Bench.Dataset, n, Workloads.DataSeed).cache(),
    ClimberParams(numPivots = 20, prefixLen = 4, capacity = 300))
  private lazy val layout = Checks.layout(index)
  private lazy val health = Checks.health(index, layout)

  override def afterAll(): Unit = spark.stop()

  private def query(qid: Long): QueryRun = {
    val q = SeriesGen.local(Bench.Dataset, qid, Workloads.DataSeed)
    val res = ClimberQuery.knn(index, q, Bench.K, Bench.Variant, qid)
    QueryRun(qid, q, res, 0.0, None, 0.0, 0.0, 0L)
  }

  test("rows read by the cached scan >= planned rows > 0") {
    val sizes = health.partSizes // build the index before counting scans
    val trace = new SparkTrace(spark)
    trace.attach()
    trace.countingScans(true)
    val qids = Seq(5L, 777L, 2024L)
    val planned = qids.map { qid =>
      val q = SeriesGen.local(Bench.Dataset, qid, Workloads.DataSeed)
      val plan = ClimberQuery.planFor(index, q, Bench.K, Bench.Variant, qid)
      ClimberQuery.scanTopK(index.data, "part", plan.partitions, q, Bench.K)
      plan.partitions.map(p => sizes(p)).sum
    }.sum
    trace.countingScans(false)
    val (read, scans) = trace.scanRows
    trace.detach()
    assert(scans == qids.size)
    assert(planned > 0)
    assert(read >= planned)
  }

  test("every build places each id once, in an existing partition") {
    val np = index.skeleton.numPartitions
    assert(Checks.placement(layout, np, n).isEmpty)
    assert(Checks.placement(layout, np, n + 1).nonEmpty)
    assert(Checks.placement(layout, np - 1, n).nonEmpty)
    assert(health.partSizes.sum == n)
  }

  test("answer checks accept real answers and reject a wrong distance") {
    val partOf = Checks.partOf(layout)
    val q = query(42L)
    assert(Checks.answer(index, partOf, health.partSizes, q).isEmpty)
    val (id, d) = q.result.head
    val bad = q.copy(result = (id, d + 1e-9) +: q.result.tail)
    assert(Checks.answer(index, partOf, health.partSizes, bad).nonEmpty)
  }

  test("percentiles are nearest-rank") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 95) == 95.0)
    assert(Stats.median(Seq(3.0, 1.0, 2.0, 10.0)) == 2.5)
  }
}
