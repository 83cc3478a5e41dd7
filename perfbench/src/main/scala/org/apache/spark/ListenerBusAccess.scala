package org.apache.spark

/** Lets the benchmark wait until every queued listener event is delivered,
  * so task counters read after a job are complete. The bus is internal to
  * Spark, hence this file's package.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
