package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.graph.{AttributedGraph, Coloring, LocalGraph}

import scala.collection.mutable

/** The paper's graph reductions as iterative peeling fixpoints.
  *
  * `colorfulSupReduce` implements ColorfulSup (Algorithm 1 / Lemma 3):
  * delete every edge whose colorful supports violate the per-attribute
  * thresholds, recompute, repeat. `enColorfulSupReduce` implements
  * EnColorfulSup (Lemma 4) with the enhanced supports. Batch rounds reach
  * the same unique maximal subgraph as the paper's one-edge-at-a-time
  * priority-queue peeling because the conditions are monotone under edge
  * deletion (DESIGN.md §5.6).
  *
  * `cascade` is Algorithm 2 lines 1–3: EnColorfulCore → ColorfulSup →
  * EnColorfulSup, with one global coloring computed up front. It peels
  * with DataFrames while the live graph has more than [[LocalEdgeLimit]]
  * edges and finishes on the driver (`LocalReductions`) once it fits.
  */
object Reductions {

  /** Surviving-edge predicate of Lemma 3 (colorful support). */
  private def supCondition(k: Int) = {
    val tA = when(col("uattr") === 0 && col("vattr") === 0, lit(k - 2))
      .when(col("uattr") === 1 && col("vattr") === 1, lit(k))
      .otherwise(lit(k - 1))
    val tB = when(col("uattr") === 0 && col("vattr") === 0, lit(k))
      .when(col("uattr") === 1 && col("vattr") === 1, lit(k - 2))
      .otherwise(lit(k - 1))
    col("supA") >= tA && col("supB") >= tB
  }

  private def withEndpointAttrs(g: AttributedGraph, supports: DataFrame): DataFrame =
    supports
      .join(g.vertices.select(col("id").as("src"), col("attr").as("uattr")), Seq("src"))
      .join(g.vertices.select(col("id").as("dst"), col("attr").as("vattr")), Seq("dst"))

  /** ColorfulSup reduction (Lemma 3) as a distributed edge-peeling loop. */
  def colorfulSupReduce(g: AttributedGraph, colors: DataFrame, k: Int,
                        maxIter: Int = 1000): AttributedGraph =
    peelEdges(g, maxIter) { cur =>
      withEndpointAttrs(cur, ColorfulSupport.colorfulSupports(cur, colors))
        .where(supCondition(k))
        .select("src", "dst")
    }

  /** EnColorfulSup reduction (Lemma 4): enhanced supports from the color
    * groups via the greedy assignment, expressed as Catalyst columns.
    */
  def enColorfulSupReduce(g: AttributedGraph, colors: DataFrame, k: Int,
                          maxIter: Int = 1000): AttributedGraph =
    peelEdges(g, maxIter) { cur =>
      val tA = when(col("uattr") === 0 && col("vattr") === 0, lit(k - 2))
        .when(col("uattr") === 1 && col("vattr") === 1, lit(k))
        .otherwise(lit(k - 1))
      val tB = when(col("uattr") === 0 && col("vattr") === 0, lit(k))
        .when(col("uattr") === 1 && col("vattr") === 1, lit(k - 2))
        .otherwise(lit(k - 1))
      val gamma = when(col("cA") < tA, least(tA - col("cA"), col("cM"))).otherwise(lit(0))
      val supA = col("cA") + gamma
      val supB = col("cB") +
        when(col("cB") < tB, least(tB - col("cB"), col("cM") - gamma)).otherwise(lit(0))
      withEndpointAttrs(cur, ColorfulSupport.enhancedGroups(cur, colors))
        .where(supA >= tA && supB >= tB)
        .select("src", "dst")
    }

  private def peelEdges(g: AttributedGraph, maxIter: Int)
                       (survivors: AttributedGraph => DataFrame): AttributedGraph = {
    var cur = g.checkpointed()
    var before = cur.edges.count()
    var changed = before > 0
    var round = 0
    while (changed && round < maxIter) {
      val keptEdges = AttributedGraph.refreshed(survivors(cur))
      val after = keptEdges.count()
      changed = after != before
      before = after
      cur = AttributedGraph(cur.vertices, keptEdges)
      round += 1
    }
    if (changed)
      throw new IllegalStateException(s"edge peeling did not reach a fixpoint in $maxIter rounds")
    cur.dropIsolated.checkpointed()
  }

  /** Reduction statistics for the Fig 4/5 bench. */
  final case class Stats(stage: String, vertices: Long, edges: Long)

  /** One cascade stage, runnable on either side of the size switch:
    * `distributed` peels DataFrames, `local` peels on the driver and
    * returns the surviving graph with its vertices' colors.
    */
  private[core] final case class Stage(
      name: String,
      distributed: (AttributedGraph, DataFrame, Int) => AttributedGraph,
      local: (LocalGraph, Array[Int], Int) => (LocalGraph, Array[Int]))

  /** Algorithm 2 lines 1–3, in order. */
  private[core] val stages: Seq[Stage] = Seq(
    Stage("EnColorfulCore", (g, c, k) => ColorfulDegrees.enColorfulCore(g, c, k - 1),
      LocalReductions.enColorfulCoreStep),
    Stage("ColorfulSup", (g, c, k) => colorfulSupReduce(g, c, k),
      LocalReductions.colorfulSupStep),
    Stage("EnColorfulSup", (g, c, k) => enColorfulSupReduce(g, c, k),
      LocalReductions.enColorfulSupStep))

  /** Live edge count at or under which [[cascade]] runs its remaining
    * stages on the driver. The driver-side peel (`LocalReductions`) keeps,
    * per edge, two color-count maps over its common neighbours. Measured on
    * pokec-lite (179k edges, the densest lite input; k = 2..6; peak live
    * heap sampled with forced full GCs during `LocalReductions.cascade`)
    * the peel peaks at 430–550 bytes per input edge on top of the
    * collected `LocalGraph`'s 47 bytes per edge: about 0.6 GB at this
    * limit, under a third of a 2 GB driver heap. The same peel takes
    * 1.3–1.9 s there, while each DataFrame peel round costs seconds of
    * fixed Spark overhead.
    */
  val LocalEdgeLimit: Long = 1000000L

  /** Algorithm 2 lines 1–3: EnColorfulCore → ColorfulSup → EnColorfulSup
    * with one global coloring, computed on the driver. Returns the reduced
    * graph (vertices that still carry edges) and per-stage statistics.
    *
    * Where each stage runs depends on the live edge count before it: the
    * input's `m`, then the previous stage's `Stats.edges`. Above
    * `localEdgeLimit` the stage is a DataFrame peeling fixpoint; at or
    * under it the graph is collected once and this and every later stage
    * peel on the driver. Each stage's surviving subgraph is unique
    * (DESIGN.md §5.6), so the result does not depend on the switch point;
    * `localEdgeLimit = 0` keeps every non-empty stage distributed.
    */
  def cascade(spark: SparkSession, g: AttributedGraph, k: Int,
              localEdgeLimit: Long = LocalEdgeLimit): (LocalGraph, Seq[Stats]) = {
    import spark.implicits._
    val lg = g.toLocal
    val colorArr = Coloring.greedyLocal(lg)
    lazy val colors = (0 until lg.n).map(i => (lg.ids(i), colorArr(i)))
      .toDF("id", "color").localCheckpoint(true)

    var cur = g
    var live = lg.m
    var rest = stages
    val distStats = mutable.ArrayBuffer.empty[Stats]
    while (rest.nonEmpty && live > localEdgeLimit) {
      cur = rest.head.distributed(cur, colors, k)
      distStats += Stats(rest.head.name, cur.numVertices, cur.numEdges)
      live = distStats.last.edges
      rest = rest.tail
    }
    val (onDriver, driverColors) =
      if (distStats.isEmpty) (lg, colorArr)
      else {
        val index = lg.ids.iterator.zipWithIndex.toMap
        val collected = cur.toLocal
        (collected, collected.ids.map(id => colorArr(index(id))))
      }
    val (reduced, localStats) = LocalReductions.runStages(rest, onDriver, driverColors, k)
    (reduced, distStats.toSeq ++ localStats)
  }
}

/** Driver-side reductions: the incremental priority-queue peeling of
  * Algorithm 1 (`colorfulSup` / `enColorfulSup`, `O(α·m)`-ish), which
  * `Reductions.cascade` runs once the live graph fits under its edge limit,
  * plus simple batch-peeling references (`*Batch`) used to cross-validate
  * them and the distributed fixpoints — all three reach the same unique
  * maximal subgraph.
  */
object LocalReductions {

  /** Lemma 3 violation check on raw supports. */
  def supViolated(attrU: Int, attrV: Int, supA: Int, supB: Int, k: Int): Boolean = {
    val (tA, tB) = ColorfulSupport.targets(attrU, attrV, k)
    supA < tA || supB < tB
  }

  /** Lemma 4 violation check on enhanced color groups. */
  def enSupViolated(attrU: Int, attrV: Int, cA: Int, cB: Int, cM: Int, k: Int): Boolean = {
    val (tA, tB) = ColorfulSupport.targets(attrU, attrV, k)
    val (sA, sB) = ColorfulSupport.enhancedSup(cA, cB, cM, tA, tB)
    sA < tA || sB < tB
  }

  /** Shared incremental peeling engine (Algorithm 1's structure).
    *
    * Per edge it tracks the count of common neighbours per (attribute,
    * color) — the paper's `M_(u,v)` — and a violation predicate over the
    * counts. An edge removal decrements, for every triangle alive at that
    * moment, the two remaining edges (each triangle is accounted exactly
    * once: by the time its second edge goes, the first is already dead and
    * the live-common-neighbour scan skips it).
    */
  private def peelIncremental(g: LocalGraph, colors: Array[Int],
                              violated: (Int, mutable.HashMap[Int, Int], mutable.HashMap[Int, Int]) => Boolean):
      LocalGraph = {
    val edges = g.edgeList
    val eIdx = mutable.LongMap.empty[Int]
    def key(u: Int, v: Int): Long =
      (math.min(u, v).toLong << 32) | math.max(u, v).toLong
    edges.zipWithIndex.foreach { case ((u, v), i) => eIdx(key(u, v)) = i }

    val removed = new Array[Boolean](edges.length)
    // M_(u,v): color -> live common-neighbour count, split by attribute
    val mA = Array.fill(edges.length)(mutable.HashMap.empty[Int, Int])
    val mB = Array.fill(edges.length)(mutable.HashMap.empty[Int, Int])

    edges.zipWithIndex.foreach { case ((u, v), i) =>
      g.intersectNeighbors(u, g.adj(v)).foreach { w =>
        val m = if (g.attr(w) == 0) mA(i) else mB(i)
        m.updateWith(colors(w))(o => Some(o.getOrElse(0) + 1))
      }
    }

    val worklist = mutable.ArrayDeque.empty[Int]
    def check(i: Int): Unit =
      if (!removed(i) && violated(i, mA(i), mB(i))) { worklist.append(i) }

    // atomic mark + triangle decrement for one edge
    def doRemove(i: Int): Unit = {
      removed(i) = true
      val (u, v) = edges(i)
      g.intersectNeighbors(u, g.adj(v)).foreach { w =>
        val iuw = eIdx(key(u, w))
        val ivw = eIdx(key(v, w))
        if (!removed(iuw) && !removed(ivw)) {
          // w stops being a common neighbour of (u,·) via v and (v,·) via u
          dec(iuw, g.attr(v), colors(v))
          dec(ivw, g.attr(u), colors(u))
          check(iuw); check(ivw)
        }
      }
    }
    def dec(i: Int, attr: Int, color: Int): Unit = {
      val m = if (attr == 0) mA(i) else mB(i)
      m.updateWith(color) {
        case Some(1) => None
        case Some(c) => Some(c - 1)
        case None => None // defensive; cannot happen
      }
    }

    edges.indices.foreach(check)
    while (worklist.nonEmpty) {
      val i = worklist.removeHead()
      if (!removed(i) && violated(i, mA(i), mB(i))) doRemove(i)
    }

    val dead = edges.indices.filter(removed).map(i => edges(i)).toSet
    g.withoutEdges(dead)
  }

  /** ColorfulSup reduction (Algorithm 1) on a local graph. */
  def colorfulSup(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph = {
    val edges = g.edgeList
    peelIncremental(g, colors, (i, ma, mb) => {
      val (u, v) = edges(i)
      supViolated(g.attr(u), g.attr(v), ma.size, mb.size, k)
    })
  }

  /** EnColorfulSup reduction (Lemma 4) on a local graph. */
  def enColorfulSup(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph = {
    val edges = g.edgeList
    peelIncremental(g, colors, (i, ma, mb) => {
      var cA = 0; var cB = 0; var cM = 0
      ma.keysIterator.foreach(c => if (mb.contains(c)) cM += 1 else cA += 1)
      cB = mb.size - cM
      val (u, v) = edges(i)
      enSupViolated(g.attr(u), g.attr(v), cA, cB, cM, k)
    })
  }

  /** Batch-peeling reference for [[colorfulSup]] (tests only). */
  def colorfulSupBatch(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph =
    peelEdgesLocal(g) { (cur, aliveEdge) =>
      ColorfulSupport.localColorfulSupports(cur, colors, aliveEdge).collect {
        case ((u, v), (sA, sB)) if supViolated(cur.attr(u), cur.attr(v), sA, sB, k) => (u, v)
      }.toSeq
    }

  /** Batch-peeling reference for [[enColorfulSup]] (tests only). */
  def enColorfulSupBatch(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph =
    peelEdgesLocal(g) { (cur, aliveEdge) =>
      ColorfulSupport.localEnhancedGroups(cur, colors, aliveEdge).collect {
        case ((u, v), (cA, cB, cM)) if enSupViolated(cur.attr(u), cur.attr(v), cA, cB, cM, k) => (u, v)
      }.toSeq
    }

  private def peelEdgesLocal(g: LocalGraph)
      (violators: (LocalGraph, (Int, Int) => Boolean) => Seq[(Int, Int)]): LocalGraph = {
    val dead = mutable.HashSet.empty[(Int, Int)]
    def alive(u: Int, v: Int): Boolean =
      !dead.contains((math.min(u, v), math.max(u, v)))
    var changed = true
    while (changed) {
      val bad = violators(g, alive)
      changed = bad.nonEmpty
      bad.foreach { case (u, v) => dead += ((math.min(u, v), math.max(u, v))) }
    }
    g.withoutEdges(dead.toSet)
  }

  /** EnColorfulCore stage (Lemma 2 at `k − 1`): the subgraph induced by
    * the surviving vertices, and their colors.
    */
  def enColorfulCoreStep(g: LocalGraph, colors: Array[Int], k: Int): (LocalGraph, Array[Int]) = {
    val kept = ColorfulDegrees.localEnColorfulCoreVertices(g, colors, k - 1)
    (g.inducedSubgraph(kept), kept.map(colors))
  }

  /** ColorfulSup stage: [[colorfulSup]] restricted to the vertices that
    * still carry edges, and their colors.
    */
  def colorfulSupStep(g: LocalGraph, colors: Array[Int], k: Int): (LocalGraph, Array[Int]) =
    withoutIsolated(colorfulSup(g, colors, k), colors)

  /** EnColorfulSup stage: [[enColorfulSup]] restricted to the vertices
    * that still carry edges, and their colors.
    */
  def enColorfulSupStep(g: LocalGraph, colors: Array[Int], k: Int): (LocalGraph, Array[Int]) =
    withoutIsolated(enColorfulSup(g, colors, k), colors)

  private def withoutIsolated(g: LocalGraph, colors: Array[Int]): (LocalGraph, Array[Int]) = {
    val live = (0 until g.n).filter(g.degree(_) > 0).toArray
    (g.inducedSubgraph(live), live.map(colors))
  }

  /** Runs `stages` in order on the driver, with per-stage statistics. */
  private[core] def runStages(stages: Seq[Reductions.Stage], g: LocalGraph,
                              colors: Array[Int], k: Int): (LocalGraph, Seq[Reductions.Stats]) = {
    var cur = g
    var curColors = colors
    val stats = stages.map { stage =>
      val (next, nextColors) = stage.local(cur, curColors, k)
      cur = next
      curColors = nextColors
      Reductions.Stats(stage.name, cur.n.toLong, cur.m)
    }
    (cur, stats)
  }

  /** The full cascade on the driver. Returns the reduced graph restricted
    * to vertices that still carry edges, plus stage stats.
    */
  def cascade(g: LocalGraph, colors: Array[Int], k: Int):
      (LocalGraph, Seq[Reductions.Stats]) =
    runStages(Reductions.stages, g, colors, k)
}
