package org.apache.spark

/** Waits until every queued listener event has been delivered.
  *
  * Listener events arrive asynchronously, so a count read right after a
  * job returns can miss it. `LiveListenerBus.waitUntilEmpty` is
  * `private[spark]`, hence this object lives in Spark's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
