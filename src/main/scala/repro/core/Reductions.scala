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
    * `distributed` peels DataFrames, `local` peels the driver's live graph.
    */
  private[core] final case class Stage(
      name: String,
      distributed: (AttributedGraph, DataFrame, Int) => AttributedGraph,
      local: (LocalReductions.DriverCascade, Int) => Unit)

  /** Algorithm 2 lines 1–3, in order. */
  private[core] val stages: Seq[Stage] = Seq(
    Stage("EnColorfulCore", (g, c, k) => ColorfulDegrees.enColorfulCore(g, c, k - 1),
      _.enColorfulCore(_)),
    Stage("ColorfulSup", (g, c, k) => colorfulSupReduce(g, c, k), _.colorfulSup(_)),
    Stage("EnColorfulSup", (g, c, k) => enColorfulSupReduce(g, c, k), _.enColorfulSup(_)))

  /** Live edge count at or under which [[cascade]] runs its remaining
    * stages on the driver. The driver-side peel (`LocalReductions`) keeps
    * flat per-edge arrays plus one packed (key, count) pair per distinct
    * apex key of each edge. Measured on pokec-lite (179k edges, the
    * densest lite input; k = 2..6; peak live heap sampled with forced full
    * GCs every 20 ms during `LocalReductions.cascade`, serial GC, 3 GB
    * heap, 4 cores) the peel peaks at 55–141 bytes per input edge on top
    * of the collected `LocalGraph`: about 0.14 GB at this limit, a
    * fourteenth of a 2 GB driver heap. The whole driver cascade takes
    * 0.25–0.3 s on pokec-lite, while each DataFrame peel round costs
    * seconds of fixed Spark overhead.
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
        val collected = cur.toLocal
        (collected, collected.ids.map(id => colorArr(java.util.Arrays.binarySearch(lg.ids, id))))
      }
    val (reduced, localStats) = LocalReductions.runStages(rest, onDriver, driverColors, k)
    (reduced, distStats.toSeq ++ localStats)
  }
}

/** Driver-side reductions: the incremental queue peeling of Algorithm 1
  * (`colorfulSup` / `enColorfulSup`), which `Reductions.cascade` runs once
  * the live graph fits under its edge limit. It reaches the same unique
  * maximal subgraph as the distributed batch rounds.
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

  /** Algorithm 1's state on flat arrays, in the in-memory truss-peeling
    * layout of Wang & Cheng (PVLDB 2012).
    *
    * Edge `e` joins `eu(e) < ev(e)`; adjacency slot `start(u) + j` (`u`'s
    * `j`-th neighbour) carries its edge id in `eid`. The triangles on edge
    * `(u, v)` come from marking `u`'s list with positions and scanning
    * `v`'s, which also yields their other two edges, with no hashing. The
    * paper's `M_(u,v)`: an apex `w` has key `2·color(w) + attr(w)`; edge
    * `e`'s distinct apex keys, ascending, with their live counts, are the
    * pairs `(apex(2s), apex(2s + 1))` for slots `s` in `off(e) until
    * off(e + 1)`, sized by a counting pass. `dA(e)` / `dB(e)` count its
    * keys of attribute a / b with a positive count, `cM(e)` its colours
    * with both; a count that drops to 0 updates them in O(1), its colour's
    * other key being the neighbouring slot.
    *
    * Peels may follow one another: each starts from the edges the earlier
    * ones kept, whose counts are exact in the graph those edges form.
    */
  private final class ApexCounts(g: LocalGraph, colors: Array[Int]) {
    private val n = g.n
    private val m = g.m.toInt
    private val start = new Array[Int](n + 1)
    for (u <- 0 until n) start(u + 1) = start(u) + g.degree(u)
    private val eid = new Array[Int](start(n))
    private val eu = new Array[Int](m)
    private val ev = new Array[Int](m)
    locally {
      // u's slot for a smaller neighbour v was filled when v came up: the
      // smaller neighbours head u's sorted list in ascending order
      val lower = new Array[Int](n)
      var e = 0
      for (u <- 0 until n; j <- g.adj(u).indices) {
        val v = g.adj(u)(j)
        if (v > u) {
          eid(start(u) + j) = e
          eid(start(v) + lower(v)) = e
          lower(v) += 1
          eu(e) = u
          ev(e) = v
          e += 1
        }
      }
    }
    private val key = Array.tabulate(n)(w => 2 * colors(w) + g.attr(w))
    // mark(w): w's position in the list of the vertex being intersected, else -1
    private val mark = Array.fill(n)(-1)
    private val off = new Array[Int](m + 1)
    private val dA = new Array[Int](m)
    private val dB = new Array[Int](m)
    private val cM = new Array[Int](m)
    private val apex: Array[Int] = {
      val keys = if (n == 0) 0 else key.max + 1
      // one edge's apex keys as bits, and their counts
      val present = new Array[Long]((keys + 63) >>> 6)
      val count = new Array[Int](keys)
      var apex = Array.emptyIntArray
      // pass 0 sizes every edge's slot range, pass 1 fills it
      for (pass <- 0 to 1) {
        if (pass == 1) {
          for (e <- 0 until m) off(e + 1) += off(e)
          apex = new Array[Int](2 * off(m))
        }
        // each edge from its endpoint of larger (degree, index), scanning
        // the other's list: O(min degree) per edge
        for (u <- 0 until n) {
          setMarks(u, on = true)
          val nu = g.adj(u)
          for (jv <- nu.indices if below(nu(jv), u)) {
            val e = eid(start(u) + jv)
            val nv = g.adj(nu(jv))
            var lo = present.length
            var hi = -1
            var jw = 0
            while (jw < nv.length) {
              if (mark(nv(jw)) >= 0) {
                val k = key(nv(jw))
                present(k >>> 6) |= 1L << k
                count(k) += 1
                lo = math.min(lo, k >>> 6)
                hi = math.max(hi, k >>> 6)
              }
              jw += 1
            }
            // drain the bits in ascending key order (pass 0 only counts them)
            var s = if (pass == 0) 0 else off(e)
            for (w <- lo to hi) {
              var bits = present(w)
              present(w) = 0
              while (bits != 0) {
                val k = (w << 6) | java.lang.Long.numberOfTrailingZeros(bits)
                bits &= bits - 1
                if (pass == 1) {
                  apex(2 * s) = k
                  apex(2 * s + 1) = count(k)
                  if ((k & 1) == 0) dA(e) += 1
                  else {
                    dB(e) += 1
                    if (s > off(e) && apex(2 * s - 2) == k - 1) cM(e) += 1
                  }
                }
                count(k) = 0
                s += 1
              }
            }
            if (pass == 0) off(e + 1) = s
          }
          setMarks(u, on = false)
        }
      }
      apex
    }

    private def below(v: Int, u: Int): Boolean =
      g.degree(v) < g.degree(u) || (g.degree(v) == g.degree(u) && v < u)

    private def setMarks(u: Int, on: Boolean): Unit = {
      val nu = g.adj(u)
      var j = 0
      while (j < nu.length) { mark(nu(j)) = if (on) j else -1; j += 1 }
    }

    /** One apex with key `k` of edge `e` is gone. Returns whether a
      * distinct count changed.
      */
    private def decrement(e: Int, k: Int): Boolean = {
      // branch-free search: the last slot whose key is <= k
      var lo = off(e)
      var len = off(e + 1) - lo
      while (len > 1) {
        val half = len >>> 1
        lo = if (apex(2 * (lo + half)) <= k) lo + half else lo
        len -= half
      }
      apex(2 * lo + 1) -= 1
      if (apex(2 * lo + 1) > 0) return false
      // the colour's other key sits next to k when e has it
      val other = if ((k & 1) == 0) lo + 1 else lo - 1
      if (other >= off(e) && other < off(e + 1) && apex(2 * other) == (k ^ 1) &&
          apex(2 * other + 1) > 0) cM(e) -= 1
      if ((k & 1) == 0) dA(e) -= 1 else dB(e) -= 1
      true
    }

    // edges a peel has processed (`dead`) or put on its worklist (`queued`);
    // the two are equal between peels
    private val queued = new java.util.BitSet(m)
    private val dead = new java.util.BitSet(m)

    /** Lemma 3 on edge `e`'s colorful supports. */
    def supViolated(e: Int, k: Int): Boolean =
      LocalReductions.supViolated(g.attr(eu(e)), g.attr(ev(e)), dA(e), dB(e), k)

    /** Lemma 4 on edge `e`'s enhanced colour groups. */
    def enSupViolated(e: Int, k: Int): Boolean =
      LocalReductions.enSupViolated(g.attr(eu(e)), g.attr(ev(e)),
        dA(e) - cM(e), dB(e) - cM(e), cM(e), k)

    /** Peels every kept edge that is `violated`, or becomes so as
      * triangles die. Each triangle is subtracted once, when its first
      * edge is processed: by the time a second one is, the triangle has a
      * dead edge and is skipped. A queued edge still counts as live until
      * it is processed.
      */
    def peel(violated: Int => Boolean): Unit = {
      val worklist = new Array[Int](m)
      var tail = 0
      def check(e: Int): Unit =
        if (!queued.get(e) && violated(e)) { queued.set(e); worklist(tail) = e; tail += 1 }
      for (e <- 0 until m) check(e)
      var head = 0
      while (head < tail) {
        val e = worklist(head)
        head += 1
        dead.set(e)
        val u = eu(e)
        val v = ev(e)
        setMarks(u, on = true)
        val nv = g.adj(v)
        var jw = 0
        while (jw < nv.length) {
          val i = mark(nv(jw))
          if (i >= 0) {
            val uw = eid(start(u) + i)
            val vw = eid(start(v) + jw)
            if (!dead.get(uw) && !dead.get(vw)) {
              if (decrement(uw, key(v))) check(uw)
              if (decrement(vw, key(u))) check(vw)
            }
          }
          jw += 1
        }
        setMarks(u, on = false)
      }
    }

    /** `g` with the edges kept so far. */
    def kept: LocalGraph = {
      val adj = Array.tabulate(n) { u =>
        val nb = g.adj(u)
        val out = new Array[Int](nb.length)
        var len = 0
        for (j <- nb.indices if !dead.get(eid(start(u) + j))) { out(len) = nb(j); len += 1 }
        java.util.Arrays.copyOf(out, len)
      }
      new LocalGraph(g.ids, g.attr, adj)
    }

    /** The vertices that carry a kept edge, and the kept edges. */
    def stats(stage: String): Reductions.Stats = {
      val touched = new java.util.BitSet(n)
      var e = dead.nextClearBit(0)
      while (e < m) { touched.set(eu(e)); touched.set(ev(e)); e = dead.nextClearBit(e + 1) }
      Reductions.Stats(stage, touched.cardinality.toLong, (m - dead.cardinality).toLong)
    }
  }

  /** ColorfulSup reduction (Algorithm 1) on a local graph. */
  def colorfulSup(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph = {
    val c = new ApexCounts(g, colors)
    c.peel(c.supViolated(_, k))
    c.kept
  }

  /** EnColorfulSup reduction (Lemma 4) on a local graph. */
  def enColorfulSup(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph = {
    val c = new ApexCounts(g, colors)
    c.peel(c.enSupViolated(_, k))
    c.kept
  }

  /** The driver side of the cascade: a live graph, with its vertices'
    * colors, that the stages peel in turn. Edge stages in a row peel one
    * [[ApexCounts]]: EnColorfulSup starts from ColorfulSup's fixpoint,
    * whose apex counts are exact for every kept edge, so it continues
    * that peel instead of rebuilding the counts.
    */
  private[core] final class DriverCascade(g: LocalGraph, colors: Array[Int]) {
    private var cur = g
    private var curColors = colors
    // the edge peel over `cur` that the last stages ran, if any: the live
    // graph is its kept edges, on the vertices that carry one
    private var edgePeel: ApexCounts = null

    /** The live graph and its vertices' colors. */
    def graph: (LocalGraph, Array[Int]) = {
      if (edgePeel != null) {
        val peeled = edgePeel.kept
        val live = (0 until peeled.n).filter(peeled.degree(_) > 0).toArray
        cur = peeled.inducedSubgraph(live)
        curColors = live.map(curColors)
        edgePeel = null
      }
      (cur, curColors)
    }

    /** EnColorfulCore (Lemma 2 at `k − 1`): the subgraph induced by the
      * surviving vertices.
      */
    def enColorfulCore(k: Int): Unit = {
      val (h, c) = graph
      val kept = ColorfulDegrees.localEnColorfulCoreVertices(h, c, k - 1)
      cur = h.inducedSubgraph(kept)
      curColors = kept.map(c)
    }

    /** ColorfulSup: the edges [[colorfulSup]] keeps. */
    def colorfulSup(k: Int): Unit = peelEdges(_.supViolated(_, k))

    /** EnColorfulSup: the edges [[enColorfulSup]] keeps. */
    def enColorfulSup(k: Int): Unit = peelEdges(_.enSupViolated(_, k))

    private def peelEdges(violated: (ApexCounts, Int) => Boolean): Unit = {
      if (edgePeel == null) edgePeel = new ApexCounts(cur, curColors)
      val c = edgePeel
      c.peel(violated(c, _))
    }

    /** The live graph's size: vertices that carry an edge after an edge
      * stage, all of them after a vertex stage.
      */
    def stats(stage: String): Reductions.Stats =
      if (edgePeel != null) edgePeel.stats(stage) else Reductions.Stats(stage, cur.n.toLong, cur.m)
  }

  /** Runs `stages` in order on the driver, with per-stage statistics;
    * the graph comes back restricted to vertices that still carry edges
    * if the last stage peeled edges.
    */
  private[core] def runStages(stages: Seq[Reductions.Stage], g: LocalGraph,
                              colors: Array[Int], k: Int): (LocalGraph, Seq[Reductions.Stats]) = {
    val live = new DriverCascade(g, colors)
    val stats = stages.map { stage => stage.local(live, k); live.stats(stage.name) }
    (live.graph._1, stats)
  }

  /** The full cascade on the driver. Returns the reduced graph restricted
    * to vertices that still carry edges, plus stage stats.
    */
  def cascade(g: LocalGraph, colors: Array[Int], k: Int):
      (LocalGraph, Seq[Reductions.Stats]) =
    runStages(Reductions.stages, g, colors, k)
}
