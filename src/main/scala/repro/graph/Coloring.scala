package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Degree-based greedy graph coloring (the paper colors every graph this
  * way before computing colorful degrees/supports).
  *
  * Sequential form: visit vertices in (degree desc, id asc) order and give
  * each the smallest color unused by already-colored neighbours.
  *
  * Distributed form: Jones–Plassmann fixpoint — a vertex colors itself
  * once all higher-priority neighbours are colored, choosing the smallest
  * free color. With priority = (degree desc, id asc) this computes exactly
  * the sequential coloring, because each vertex decides strictly after all
  * neighbours that precede it in the sequential order.
  */
object Coloring {

  /** Sequential greedy coloring; returns colors indexed by internal id. */
  def greedyLocal(g: LocalGraph): Array[Int] = {
    val n = g.n
    val maxDeg = g.maxDegree
    // a vertex's rank is its place in (id, index) order; byRank maps a
    // rank back to its vertex
    val sortedIds = g.ids.clone()
    java.util.Arrays.sort(sortedIds)
    val taken = new Array[Int](n)
    val byRank = new Array[Int](n)
    // key (maxDeg - degree) * n + rank sorts vertices in (degree desc, id
    // asc) order, as one primitive Long per vertex
    val key = new Array[Long](n)
    var u = 0
    while (u < n) {
      val id = g.ids(u)
      // first place of id in sortedIds; equal ids rank in index order
      var lo = 0
      var hi = n
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (sortedIds(mid) < id) lo = mid + 1 else hi = mid }
      val rank = lo + taken(lo)
      taken(lo) += 1
      byRank(rank) = u
      key(u) = (maxDeg - g.degree(u)).toLong * n + rank
      u += 1
    }
    java.util.Arrays.sort(key)
    val color = Array.fill(n)(-1)
    // used(c) == s marks color c as taken by a neighbour of the s-th vertex;
    // a vertex of degree d gets a color <= d, so larger ones never block
    val used = new Array[Int](maxDeg + 1)
    var s = 0
    while (s < n) {
      val v = byRank((key(s) % n).toInt)
      s += 1
      val nb = g.adj(v)
      var j = 0
      while (j < nb.length) {
        val c = color(nb(j))
        if (c >= 0 && c <= nb.length) used(c) = s
        j += 1
      }
      var c = 0
      while (used(c) == s) c += 1
      color(v) = c
    }
    color
  }

  /** Number of distinct colors used by `colors`. */
  def numColors(colors: Array[Int]): Int = if (colors.isEmpty) 0 else colors.distinct.length

  /** True iff no edge joins two same-colored vertices. */
  def isProper(g: LocalGraph, colors: Array[Int]): Boolean =
    (0 until g.n).forall(u => g.adj(u).forall(v => colors(u) != colors(v)))

  /** Distributed Jones–Plassmann coloring; returns `(id, color)`.
    * Equals [[greedyLocal]] on the same graph (tested). Intended for the
    * distributed pipeline; round count is bounded by the longest
    * decreasing-priority path.
    */
  def greedyDistributed(spark: SparkSession, g: AttributedGraph, maxIter: Int = 10000): DataFrame = {
    import spark.implicits._
    val sym = AttributedGraph.refreshed(g.symmetricEdges)
    val deg = AttributedGraph.refreshed(g.degrees)

    val minFree = udf { used: Seq[Int] =>
      val s = used.toSet
      Iterator.from(0).find(c => !s.contains(c)).get
    }

    // state: (id, degree, color) with color = null until assigned
    var state = AttributedGraph.refreshed(
      deg.select(col("id"), col("degree"), lit(null).cast("int").as("color")))
    var remaining = state.where(col("color").isNull).count()
    var round = 0
    while (remaining > 0 && round < maxIter) {
      val nbrState = sym.alias("e")
        .join(state.alias("s"), col("e.y") === col("s.id"))
        .select(
          col("e.x").as("id"),
          col("s.degree").as("nbrDegree"),
          col("s.id").as("nbrId"),
          col("s.color").as("nbrColor"))
      val perVertex = nbrState
        .join(state.select(col("id"), col("degree"), col("color")), Seq("id"))
        .where(col("color").isNull)
        .groupBy(col("id"))
        .agg(
          // a neighbour blocks if it is uncolored and has higher priority
          max(
            when(
              col("nbrColor").isNull &&
                (col("nbrDegree") > col("degree") ||
                  (col("nbrDegree") === col("degree") && col("nbrId") < col("id"))),
              lit(1)).otherwise(lit(0))).as("blocked"),
          collect_set(when(col("nbrColor").isNotNull, col("nbrColor"))).as("usedColors"))
      val newlyColored = perVertex
        .where(col("blocked") === 0)
        .select(col("id"), minFree(col("usedColors")).as("newColor"))
      // uncolored vertices with no neighbours at all are also ready
      val isolatedReady = state
        .where(col("color").isNull && col("degree") === 0)
        .select(col("id"), lit(0).as("newColor"))
      val assigned = newlyColored.union(isolatedReady)
      state = AttributedGraph.refreshed(state
        .join(assigned, Seq("id"), "left")
        .select(
          col("id"), col("degree"),
          coalesce(col("color"), col("newColor")).as("color")))
      remaining = state.where(col("color").isNull).count()
      round += 1
    }
    require(remaining == 0, s"coloring did not converge in $maxIter rounds")
    state.select(col("id"), col("color"))
  }
}
