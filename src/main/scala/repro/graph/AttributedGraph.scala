package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Distributed attributed graph.
  *
  * `vertices`: `(id: Long, attr: Int)` with `attr` 0 (= "a") or 1 (= "b").
  * `edges`: `(src: Long, dst: Long)` canonicalized to `src < dst`, no
  * self-loops, no duplicates. All reductions consume and produce this
  * shape, so the reduction cascade (Algorithm 2, lines 1–3) is plain
  * DataFrame-in / DataFrame-out composition.
  */
final case class AttributedGraph(vertices: DataFrame, edges: DataFrame) {

  def numVertices: Long = vertices.count()

  def numEdges: Long = edges.count()

  /** Both directions of every edge: `(x, y)` — the adjacency relation. */
  def symmetricEdges: DataFrame =
    edges.select(col("src").as("x"), col("dst").as("y"))
      .union(edges.select(col("dst").as("x"), col("src").as("y")))

  /** Degree per vertex; vertices with no edges get degree 0. */
  def degrees: DataFrame = {
    val d = symmetricEdges.groupBy(col("x").as("id")).agg(count(lit(1)).as("degree"))
    vertices.select("id")
      .join(d, Seq("id"), "left")
      .select(col("id"), coalesce(col("degree"), lit(0L)).as("degree"))
  }

  /** Restrict to the vertices in `keep` (a DataFrame with column `id`). */
  def inducedBy(keep: DataFrame): AttributedGraph = {
    val ks = keep.select("id").distinct()
    val e = edges
      .join(ks.withColumnRenamed("id", "src"), Seq("src"))
      .join(ks.withColumnRenamed("id", "dst"), Seq("dst"))
      .select("src", "dst")
    AttributedGraph(vertices.join(ks, Seq("id")).select("id", "attr"), e)
  }

  /** Drop vertices that no longer touch any edge (post edge-peeling). */
  def dropIsolated: AttributedGraph = {
    val touched = symmetricEdges.select(col("x").as("id")).distinct()
    AttributedGraph(vertices.join(touched, Seq("id")).select("id", "attr"), edges)
  }

  /** Materialize both sides and cut lineage (used between peel rounds). */
  def checkpointed(): AttributedGraph =
    AttributedGraph(AttributedGraph.refreshed(vertices), AttributedGraph.refreshed(edges))

  /** Collect into a [[LocalGraph]]. Every pipeline input passes through
    * here, so this is where the input contract is checked: vertex ids are
    * unique, attributes are 0 or 1, and every edge endpoint has a vertex
    * row. Anything else is rejected with an `IllegalArgumentException`.
    */
  def toLocal: LocalGraph = {
    val vs = vertices.select("id", "attr").collect().map(r => r.getLong(0) -> r.getInt(1))
    val attrs = vs.toMap
    require(attrs.size == vs.length,
      s"duplicate vertex id ${vs.groupBy(_._1).collectFirst { case (id, rs) if rs.length > 1 => id }.get}")
    vs.find { case (_, a) => a != 0 && a != 1 }.foreach { case (id, a) =>
      throw new IllegalArgumentException(s"vertex $id has attribute $a; attributes must be 0 or 1")
    }
    val es = edges.select("src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSeq
    es.find { case (u, v) => !attrs.contains(u) || !attrs.contains(v) }.foreach { case (u, v) =>
      throw new IllegalArgumentException(s"edge ($u, $v) has an endpoint without a vertex row")
    }
    LocalGraph.fromEdges(es, attrs)
  }
}

object AttributedGraph {

  /** Materialize a DataFrame and rebase it on the checkpointed RDD.
    *
    * `localCheckpoint` alone truncates lineage but the resulting
    * `LogicalRDD` inherits the *estimated* statistics of the original
    * plan; in a peeling loop those estimates compound exponentially
    * round over round until Catalyst's size-in-bytes arithmetic grinds on
    * million-digit BigIntegers. Re-wrapping the checkpointed RDD resets
    * the stats to defaults, keeping every round's planning O(plan size).
    */
  def refreshed(df: DataFrame): DataFrame = {
    val cp = df.localCheckpoint(true)
    cp.sparkSession.createDataFrame(cp.rdd, cp.schema)
  }

  /** Build from raw edge and vertex DataFrames: canonicalizes edge
    * direction, drops self-loops and duplicate edges.
    */
  def apply(vertices: DataFrame, rawEdges: DataFrame, canonicalize: Boolean): AttributedGraph = {
    if (!canonicalize) AttributedGraph(vertices, rawEdges)
    else {
      val e = rawEdges
        .select(
          least(col("src"), col("dst")).as("src"),
          greatest(col("src"), col("dst")).as("dst"))
        .where(col("src") =!= col("dst"))
        .distinct()
      AttributedGraph(vertices.select("id", "attr"), e)
    }
  }

  /** Lift a [[LocalGraph]] back into DataFrames (for tests and oracles). */
  def fromLocal(spark: SparkSession, g: LocalGraph): AttributedGraph = {
    import spark.implicits._
    val vs = (0 until g.n).map(i => (g.ids(i), g.attr(i))).toDF("id", "attr")
    val es = g.edgeList.map { case (u, v) => (g.ids(u), g.ids(v)) }.toSeq
    val edf =
      if (es.isEmpty) Seq.empty[(Long, Long)].toDF("src", "dst")
      else es.map { case (u, v) => (math.min(u, v), math.max(u, v)) }.toDF("src", "dst")
    AttributedGraph(vs, edf)
  }
}
