package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Distributed whole-graph operations the pipeline does not use, kept as
  * cross-checked DataFrame references: iterative k-core peeling and
  * connected components, both as fixpoint loops with per-round
  * `localCheckpoint` to cut lineage.
  */
object GraphOps {

  /** Maximal k-core as an iterative vertex-peeling fixpoint.
    * Each round deletes every vertex of degree < k; the surviving maximal
    * subgraph is unique, so batch deletion reaches the same fixpoint as
    * sequential peeling.
    */
  def kCore(g: AttributedGraph, k: Int, maxIter: Int = 1000): AttributedGraph = {
    var cur = g.checkpointed()
    var round = 0
    var changed = true
    while (changed && round < maxIter) {
      val keep = cur.degrees.where(col("degree") >= k).select("id")
      val before = cur.vertices.count()
      val nxt = cur.inducedBy(keep).checkpointed()
      val after = nxt.vertices.count()
      changed = after != before
      cur = nxt
      round += 1
    }
    cur
  }

  /** Connected components by iterative min-label propagation.
    * Returns `(id, component)` where `component` is the minimum vertex id
    * reachable from `id`. Isolated vertices are their own component.
    */
  def connectedComponents(g: AttributedGraph, maxIter: Int = 200): DataFrame = {
    val sym = AttributedGraph.refreshed(g.symmetricEdges)
    var labels = AttributedGraph.refreshed(
      g.vertices.select(col("id"), col("id").as("component")))
    var changed = true
    var round = 0
    while (changed && round < maxIter) {
      val nbrMin = sym
        .join(labels.withColumnRenamed("id", "y"), Seq("y"))
        .groupBy(col("x").as("id"))
        .agg(min(col("component")).as("nbrComponent"))
      val updated = labels
        .join(nbrMin, Seq("id"), "left")
        .select(
          col("id"),
          least(col("component"), coalesce(col("nbrComponent"), col("component")))
            .as("component"))
      val updatedM = AttributedGraph.refreshed(updated)
      val diffs = updatedM.alias("u")
        .join(labels.alias("l"), col("u.id") === col("l.id"))
        .where(col("u.component") =!= col("l.component"))
        .count()
      changed = diffs > 0
      labels = updatedM
      round += 1
    }
    labels
  }
}
