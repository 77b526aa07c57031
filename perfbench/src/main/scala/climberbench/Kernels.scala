package climberbench

import repro.core.{ClimberIndex, IndexSkeleton, Paa}
import repro.core.Centroids.SigFreq
import repro.exp.Workloads
import repro.series.SeriesGen

/** Warmed `nanoTime` loops over the per-record kernels of the featurize,
  * placement and re-rank paths (no JMH: it is not in the offline cache).
  */
object Kernels {
  @volatile private var sink = 0.0

  /** µs per record of `f` over records `0 until n`: passes run until warm
    * (≥ 3 passes and ≥ 300 ms), then the median of 7 timed passes.
    */
  def usPerRecord(n: Int)(f: Int => Double): Double = {
    def pass(): Long = {
      var acc = 0.0
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) { acc += f(i); i += 1 }
      val dt = System.nanoTime() - t0
      sink += acc
      dt
    }
    val warmUntil = System.nanoTime() + 300000000L
    var warm = 0
    while (warm < 3 || System.nanoTime() < warmUntil) { pass(); warm += 1 }
    Stats.median(Seq.fill(7)(pass() / 1e3 / n))
  }

  /** Kernel costs against a built index, on `records` series drawn by `seed`. */
  def measure(index: ClimberIndex, seed: Long, records: Int = 2000): Map[String, Double] = {
    val rng = new java.util.Random(seed)
    val series = Array.fill(records) {
      SeriesGen.local(Bench.Dataset, math.floorMod(rng.nextLong(), Bench.NumSeries), Workloads.DataSeed)
    }
    val w = index.params.paaW
    val paas = series.map(Paa.of(_, w))
    val sigs = paas.map(index.pivots.dual)
    val query = series(0)
    val sk = index.skeleton
    Map(
      "paa.us_per_rec" -> usPerRecord(records)(i => Paa.of(series(i), w)(0)),
      "pivots.dual_us_per_rec" -> usPerRecord(records)(i => index.pivots.dual(paas(i))._1(0).toDouble),
      "skeleton.place_us_per_rec" -> usPerRecord(records) { i =>
        sk.place(i.toLong, sigs(i)._1, sigs(i)._2)._2.toDouble
      },
      "distances.ed_us_per_rec" -> usPerRecord(records)(i => repro.core.Distances.euclidean(series(i), query)),
      "skeleton.build_ms" -> skeletonBuildMs(index),
    )
  }

  /** `IndexSkeleton.build` on the aggregated signatures of a fixed sample
    * (every 1/α-th id), as Step 3 of the build runs it on the driver.
    */
  def skeletonBuildMs(index: ClimberIndex): Double = {
    val p = index.params
    val stride = math.max(1, math.round(1 / p.alpha).toInt)
    val sigs = (0L until Bench.NumSeries by stride.toLong).map { id =>
      index.pivots.dual(Paa.of(SeriesGen.local(Bench.Dataset, id, Workloads.DataSeed), p.paaW))
    }
    def agg(f: ((Array[Int], Array[Int])) => Array[Int]): Seq[SigFreq] =
      sigs.groupBy(s => f(s).toSeq).toSeq.map { case (k, v) => SigFreq(k.toArray, v.size.toLong) }
    val rsAgg = agg(_._1)
    val riAgg = agg(_._2)
    def once(): Double = {
      val (sk, s) = Workloads.timed(IndexSkeleton.build(riAgg, rsAgg, p.alpha, p.capacity, p.eps,
        p.decay, p.maxCentroids))
      sink += sk.numPartitions
      s * 1e3
    }
    once()
    Stats.median(Seq.fill(5)(once()))
  }
}
