package repro.core

import org.apache.spark.sql.{Column, DataFrame}
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
  * the endpoint attributes — Lemma 3 / Lemma 4 thresholds. Both supports
  * are projections of one aggregate per edge, its colour groups
  * ([[colorGroups]], which the vertex level shares).
  */
object ColorfulSupport {

  /** Per-edge thresholds `(tA, tB)` of Lemmas 3–4 from endpoint attrs. */
  def targets(attrU: Int, attrV: Int, k: Int): (Int, Int) = (attrU, attrV) match {
    case (0, 0) => (k - 2, k)
    case (1, 1) => (k, k - 2)
    case _      => (k - 1, k - 1)
  }

  /** [[targets]] as Catalyst columns of the endpoint attributes `uattr`
    * and `vattr`: `(k − 2 + uattr + vattr, k − uattr − vattr)`, which is
    * the table for attributes 0 and 1.
    */
  private[core] def targetCols(k: Int): (Column, Column) = {
    val ab = col("uattr") + col("vattr")
    (lit(k - 2) + ab, lit(k) - ab)
  }

  /** The keep rule of Lemmas 1–4 on the colour groups `cA`, `cB`, `cM` of
    * a vertex or an edge, against targets `(tA, tB)`: the colorful degrees
    * or supports `(cA + cM, cB + cM)` meet both and, when `enhanced`, so
    * does the best mixed-colour assignment (`ED` of Definition 4, the
    * greedy [[enhancedSup]] of Definition 7), which holds exactly when
    * also `cA + cB + cM >= tA + tB`.
    */
  private[core] def keeps(targets: (Column, Column), enhanced: Boolean): Column = {
    val (tA, tB) = targets
    val plain = col("cA") + col("cM") >= tA && col("cB") + col("cM") >= tB
    if (enhanced) plain && col("cA") + col("cB") + col("cM") >= tA + tB else plain
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
    * edge (zeros when the edge closes no triangle), `sup_a = cA + cM` and
    * `sup_b = cB + cM` of its [[enhancedGroups]].
    */
  def colorfulSupports(g: AttributedGraph, colors: DataFrame): DataFrame =
    enhancedGroups(g, colors).select(col("src"), col("dst"),
      (col("cA") + col("cM")).as("supA"), (col("cB") + col("cM")).as("supB"))

  /** Distributed enhanced-support color groups: `(src, dst, cA, cB, cM)`. */
  def enhancedGroups(g: AttributedGraph, colors: DataFrame): DataFrame =
    colorGroups(g, colors, g.edges.select("src", "dst"), commonNeighbors(g))

  /** The rows of `keys` with the colour groups `(cA, cB, cM)` of the
    * vertices `w` that `rows` pairs with them (on the columns of `keys`):
    * the colours seen only on attribute-a vertices, only on attribute-b
    * vertices, and on both; zeros for a key without rows. A vertex's `w`
    * are its neighbours, an edge's its triangle apexes.
    */
  private[core] def colorGroups(g: AttributedGraph, colors: DataFrame, keys: DataFrame,
                                rows: DataFrame): DataFrame = {
    val key = keys.columns.toSeq
    val perColor = rows
      .join(g.vertices.select(col("id").as("w"), col("attr")), "w")
      .join(colors.select(col("id").as("w"), col("color")), "w")
      .groupBy((key :+ "color").map(col): _*)
      .agg(min("attr").as("lo"), max("attr").as("hi"))
    val groups = perColor.groupBy(key.map(col): _*).agg(
      count(when(col("hi") === 0, 1)).cast("int").as("cA"),
      count(when(col("lo") === 1, 1)).cast("int").as("cB"),
      count(when(col("lo") < col("hi"), 1)).cast("int").as("cM"))
    keys.join(groups, key, "left").na.fill(0, Seq("cA", "cB", "cM"))
  }
}
