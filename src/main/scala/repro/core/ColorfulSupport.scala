package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.graph.AttributedGraph

/** Colorful support (Definition 6) and enhanced colorful support
  * (Definition 7) of edges as DataFrames; the driver-side peel keeps the
  * same counts incrementally (`LocalReductions`).
  *
  * For an edge `(u, v)`, `sup_a(u,v)` counts distinct colors among common
  * neighbours of `u` and `v` with attribute a. The enhanced variant
  * partitions the common-neighbour colors into exclusive-a (`cA`),
  * exclusive-b (`cB`) and mixed (`cM`) groups and greedily assigns mixed
  * colors (first to a, then to b) against per-edge targets derived from
  * the endpoint attributes — Lemma 3 / Lemma 4 thresholds.
  */
object ColorfulSupport {

  /** Per-edge thresholds `(tA, tB)` of Lemmas 3–4 from endpoint attrs. */
  def targets(attrU: Int, attrV: Int, k: Int): (Int, Int) = (attrU, attrV) match {
    case (0, 0) => (k - 2, k)
    case (1, 1) => (k, k - 2)
    case _      => (k - 1, k - 1)
  }

  /** Greedy mixed-color assignment of Definition 7: fill attribute a up to
    * `tA` first, then b up to `tB`. Returns `(supA, supB)`.
    */
  def enhancedSup(cA: Int, cB: Int, cM: Int, tA: Int, tB: Int): (Int, Int) = {
    val gamma = if (cA < tA) math.min(tA - cA, cM) else 0
    val rem = cM - gamma
    val sA = cA + gamma
    val sB = cB + (if (cB < tB) math.min(tB - cB, rem) else 0)
    (sA, sB)
  }

  /** Common-neighbour relation: one row `(src, dst, w)` per triangle
    * corner `w` adjacent to both endpoints of the canonical edge.
    *
    * Uses the standard degree-orientation: edges are directed from the
    * (degree, id)-smaller endpoint, wedges are enumerated from each
    * center's out-neighbours (`O(Σ deg⁺²)`, bounded by arboricity·m
    * instead of `Σ deg²` — hub-safe), and each triangle found once is
    * exploded into its three (edge, corner) rows.
    */
  private def commonNeighbors(g: AttributedGraph): DataFrame = {
    val maxIdRow = g.vertices.agg(max(col("id"))).head()
    if (maxIdRow.isNullAt(0))
      return g.edges.select(col("src"), col("dst"), col("src").as("w")).limit(0)
    val maxId = maxIdRow.getLong(0) + 1L
    val ranked = g.degrees
      .select(col("id"), (col("degree") * maxId + col("id")).as("rank"))
    val adjP = g.symmetricEdges.alias("e")
      .join(ranked.select(col("id").as("x"), col("rank").as("rx")), Seq("x"))
      .join(ranked.select(col("id").as("y"), col("rank").as("ry")), Seq("y"))
      .where(col("rx") < col("ry"))
      .select(col("x"), col("y"), col("ry"))
    val wedges = adjP.alias("a")
      .join(adjP.alias("b"),
        col("a.x") === col("b.x") && col("a.ry") < col("b.ry"))
      .select(col("a.x").as("w0"), col("a.y").as("w1"), col("b.y").as("w2"))
    // close the wedge: (w1, w2) must itself be an oriented edge
    val tri = wedges.join(
      adjP.select(col("x").as("w1"), col("y").as("w2")), Seq("w1", "w2"))
    tri.select(explode(array(
        struct(least(col("w0"), col("w1")).as("src"),
          greatest(col("w0"), col("w1")).as("dst"), col("w2").as("w")),
        struct(least(col("w0"), col("w2")).as("src"),
          greatest(col("w0"), col("w2")).as("dst"), col("w1").as("w")),
        struct(least(col("w1"), col("w2")).as("src"),
          greatest(col("w1"), col("w2")).as("dst"), col("w0").as("w"))
      )).as("t"))
      .select(col("t.src").as("src"), col("t.dst").as("dst"), col("t.w").as("w"))
  }

  /** Distributed colorful supports: `(src, dst, supA, supB)` for every
    * edge (zeros when the edge closes no triangle).
    */
  def colorfulSupports(g: AttributedGraph, colors: DataFrame): DataFrame = {
    val wInfo = commonNeighbors(g).alias("t")
      .join(g.vertices.alias("v"), col("t.w") === col("v.id"))
      .join(colors.alias("c"), col("t.w") === col("c.id"))
      .select(col("t.src").as("src"), col("t.dst").as("dst"),
        col("v.attr").as("wattr"), col("c.color").as("wcolor"))
    val agg = wInfo.groupBy("src", "dst").agg(
      countDistinct(when(col("wattr") === 0, col("wcolor"))).cast("int").as("supA"),
      countDistinct(when(col("wattr") === 1, col("wcolor"))).cast("int").as("supB"))
    g.edges
      .join(agg, Seq("src", "dst"), "left")
      .select(col("src"), col("dst"),
        coalesce(col("supA"), lit(0)).as("supA"),
        coalesce(col("supB"), lit(0)).as("supB"))
  }

  /** Distributed enhanced-support color groups: `(src, dst, cA, cB, cM)`. */
  def enhancedGroups(g: AttributedGraph, colors: DataFrame): DataFrame = {
    val wInfo = commonNeighbors(g).alias("t")
      .join(g.vertices.alias("v"), col("t.w") === col("v.id"))
      .join(colors.alias("c"), col("t.w") === col("c.id"))
      .select(col("t.src").as("src"), col("t.dst").as("dst"),
        col("v.attr").as("wattr"), col("c.color").as("wcolor"))
    val perColor = wInfo.groupBy("src", "dst", "wcolor").agg(
      max(when(col("wattr") === 0, 1).otherwise(0)).as("hasA"),
      max(when(col("wattr") === 1, 1).otherwise(0)).as("hasB"))
    val agg = perColor.groupBy("src", "dst").agg(
      sum(when(col("hasA") === 1 && col("hasB") === 0, 1).otherwise(0)).cast("int").as("cA"),
      sum(when(col("hasA") === 0 && col("hasB") === 1, 1).otherwise(0)).cast("int").as("cB"),
      sum(when(col("hasA") === 1 && col("hasB") === 1, 1).otherwise(0)).cast("int").as("cM"))
    g.edges
      .join(agg, Seq("src", "dst"), "left")
      .select(col("src"), col("dst"),
        coalesce(col("cA"), lit(0)).as("cA"),
        coalesce(col("cB"), lit(0)).as("cB"),
        coalesce(col("cM"), lit(0)).as("cM"))
  }
}
