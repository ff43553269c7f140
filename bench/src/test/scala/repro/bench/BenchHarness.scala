package repro.bench

import repro.SparkSpec
import repro.graph.{Coloring, LocalGraph}
import repro.core.{LocalReductions, Reductions}
import repro.synth.LiteDatasets

import scala.collection.mutable

/** Shared machinery for the table/figure benches: timing, aligned table
  * printing, and per-JVM caches of the generated dataset analogs and their
  * k-dependent reductions (the reduction only depends on k, so δ sweeps
  * and bound-config sweeps reuse it — same as the paper, which reduces
  * once inside MaxRFC).
  */
trait BenchHarness extends SparkSpec {

  /** Wall-clock a computation in milliseconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Print an aligned ASCII table (also lands in bench_output.txt). */
  def printTable(title: String, headers: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = headers +: rows
    val widths = headers.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println()
    println(s"== $title ==")
    println(fmt(headers))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(fmt(r)))
    println()
  }

  def ms(d: Double): String = f"$d%.1f"

  /** A row's optimum size; when every search of the row was truncated it is
    * only the largest clique found, printed as a lower bound.
    */
  def sizeCell(size: Int, allTruncated: Boolean): String =
    if (allTruncated) s">=$size" else size.toString
}

/** JVM-wide caches shared by all bench suites in one `bench/test` run. */
object BenchData {
  private val graphs = mutable.HashMap.empty[String, LocalGraph]
  private val colorings = mutable.HashMap.empty[String, Array[Int]]
  private val reduced = mutable.HashMap.empty[(String, Int), (LocalGraph, Seq[Reductions.Stats], Double)]

  /** The dataset analog as a local graph (generated once per JVM). */
  def graph(spark: org.apache.spark.sql.SparkSession, name: String): LocalGraph =
    synchronized {
      graphs.getOrElseUpdate(name, LiteDatasets.load(spark, name).toLocal)
    }

  /** The global greedy coloring of a dataset (computed once). */
  def colors(spark: org.apache.spark.sql.SparkSession, name: String): Array[Int] =
    synchronized {
      colorings.getOrElseUpdate(name, Coloring.greedyLocal(graph(spark, name)))
    }

  /** Reduced graph (full cascade) for `(dataset, k)`, with stats and the
    * reduction wall-clock; cached so δ / bound sweeps don't repeat it.
    */
  def reducedGraph(spark: org.apache.spark.sql.SparkSession, name: String, k: Int):
      (LocalGraph, Seq[Reductions.Stats], Double) =
    synchronized {
      reduced.getOrElseUpdate((name, k), {
        val g = graph(spark, name)
        val c = colors(spark, name)
        val t0 = System.nanoTime()
        val (r, stats) = LocalReductions.cascade(g, c, k)
        ((r, stats, (System.nanoTime() - t0) / 1e6))
      })
    }
}
