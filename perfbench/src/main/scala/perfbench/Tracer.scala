package perfbench

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable

/** Spark counters over an interval: jobs, tasks, summed executor run time,
  * shuffle bytes read, task-result bytes shipped to the driver, and the
  * longest single task.
  */
final case class Counters(jobs: Long, tasks: Long, taskBusyMs: Long,
                          shuffleReadBytes: Long, resultBytes: Long, taskMaxMs: Long)

/** Accumulates [[Counters]] from listener events. [[read]] drains the
  * listener bus first, so every event of a finished job is counted.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private var jobs, tasks, busyMs, shuffleRead, resultBytes, maxTaskMs = 0L

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobs += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    maxTaskMs = math.max(maxTaskMs, e.taskInfo.duration)
    Option(e.taskMetrics).foreach { m =>
      busyMs += m.executorRunTime
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
      resultBytes += m.resultSize
    }
  }

  /** Totals since the last call; `taskMaxMs` is the longest task since then. */
  def read(): Counters = {
    ListenerBusDrain(sc)
    synchronized {
      val c = Counters(jobs, tasks, busyMs, shuffleRead, resultBytes, maxTaskMs)
      jobs = 0; tasks = 0; busyMs = 0; shuffleRead = 0; resultBytes = 0; maxTaskMs = 0
      c
    }
  }
}

/** One layer call inside a query: wall interval plus the Spark counters
  * of the jobs it ran. All spans of a traced query are children of that
  * query (`query` is the shared identifier).
  */
final case class Span(query: Int, name: String, startNs: Long, endNs: Long, spark: Counters) {
  def wallMs: Double = (endNs - startNs) / 1e6
}

/** Records spans around calls into the program's layers. Calls are
  * sequential (one client), so the counters read at a span's end belong
  * to that span alone.
  */
final class Tracer(counters: SparkCounters) {
  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer.empty
  /** Counts recorded at span boundaries: (query, name, value, additive). */
  val notes: mutable.ArrayBuffer[(Int, String, Double, Boolean)] = mutable.ArrayBuffer.empty
  private var query = 0

  def startQuery(q: Int): Unit = { query = q; counters.read() }

  def span[T](name: String)(body: => T): T = {
    counters.read()
    val t0 = System.nanoTime()
    val r = body
    val t1 = System.nanoTime()
    spans += Span(query, name, t0, t1, counters.read())
    r
  }

  /** Records a count for the current query. Additive counts (work done)
    * are summed over a query's calls, the others averaged.
    */
  def note(name: String, value: Double, additive: Boolean = false): Unit =
    notes += ((query, name, value, additive))
}
