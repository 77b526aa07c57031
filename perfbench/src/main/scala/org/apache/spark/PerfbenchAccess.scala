package org.apache.spark

/** The one package-private Spark call the benchmark needs: wait until every
  * listener has seen every event posted so far, so counters read after it
  * are complete.
  */
object PerfbenchAccess {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
