package climberbench

/** Order statistics. */
object Stats {

  /** Nearest-rank percentile (0 < p ≤ 100) of a non-empty sample. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of an empty sample")
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(p / 100.0 * s.size).toInt - 1)))
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of an empty sample")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}
