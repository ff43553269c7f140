package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.graph.{AttributedGraph, LocalGraph}

import scala.collection.mutable

/** Colorful degree (Definition 2), enhanced colorful degree (Definition 4)
  * and the vertex-level reductions built from them: the colorful k-core
  * (Definition 3 / Lemma 1) and the enhanced colorful k-core
  * (Definition 5 / Lemma 2). Distributed DataFrame implementations plus
  * local mirrors used for cross-validation and fast bench sweeps.
  *
  * `ED(u)` uses the optimal mixed-color assignment closed form
  * `min(c_a + c_m, c_b + c_m, ⌊(c_a + c_b + c_m) / 2⌋)` where `c_a`/`c_b`
  * count colors seen only on attribute-a/-b neighbours of `u` and `c_m`
  * counts colors seen on both (DESIGN.md §5.7).
  */
object ColorfulDegrees {

  /** Distributed colorful degrees: `(id, dA, dB)` — distinct neighbour
    * colors per attribute; vertices without neighbours get zeros.
    */
  def colorfulDegrees(g: AttributedGraph, colors: DataFrame): DataFrame = {
    val nbr = g.symmetricEdges.alias("e")
      .join(g.vertices.alias("v"), col("e.y") === col("v.id"))
      .join(colors.alias("c"), col("e.y") === col("c.id"))
      .select(col("e.x").as("id"), col("v.attr").as("nattr"), col("c.color").as("ncolor"))
    val agg = nbr.groupBy("id").agg(
      countDistinct(when(col("nattr") === 0, col("ncolor"))).as("dA"),
      countDistinct(when(col("nattr") === 1, col("ncolor"))).as("dB"))
    g.vertices.select("id")
      .join(agg, Seq("id"), "left")
      .select(col("id"),
        coalesce(col("dA"), lit(0L)).cast("int").as("dA"),
        coalesce(col("dB"), lit(0L)).cast("int").as("dB"))
  }

  /** Distributed enhanced colorful degree: `(id, cA, cB, cM, ed)`. */
  def enhancedDegrees(g: AttributedGraph, colors: DataFrame): DataFrame = {
    val nbr = g.symmetricEdges.alias("e")
      .join(g.vertices.alias("v"), col("e.y") === col("v.id"))
      .join(colors.alias("c"), col("e.y") === col("c.id"))
      .select(col("e.x").as("id"), col("v.attr").as("nattr"), col("c.color").as("ncolor"))
    val perColor = nbr.groupBy(col("id"), col("ncolor")).agg(
      max(when(col("nattr") === 0, 1).otherwise(0)).as("hasA"),
      max(when(col("nattr") === 1, 1).otherwise(0)).as("hasB"))
    val agg = perColor.groupBy("id").agg(
      sum(when(col("hasA") === 1 && col("hasB") === 0, 1).otherwise(0)).cast("int").as("cA"),
      sum(when(col("hasA") === 0 && col("hasB") === 1, 1).otherwise(0)).cast("int").as("cB"),
      sum(when(col("hasA") === 1 && col("hasB") === 1, 1).otherwise(0)).cast("int").as("cM"))
    g.vertices.select("id")
      .join(agg, Seq("id"), "left")
      .select(col("id"),
        coalesce(col("cA"), lit(0)).as("cA"),
        coalesce(col("cB"), lit(0)).as("cB"),
        coalesce(col("cM"), lit(0)).as("cM"))
      .withColumn("ed",
        least(col("cA") + col("cM"), col("cB") + col("cM"),
          floor((col("cA") + col("cB") + col("cM")) / 2).cast("int")))
  }

  /** `ED` closed form on scalar group counts (shared with local code). */
  def edOf(cA: Int, cB: Int, cM: Int): Int =
    math.min(math.min(cA + cM, cB + cM), (cA + cB + cM) / 2)

  /** Colorful core: iteratively delete vertices with
    * `min(dA, dB) < threshold` until none remain (batch peeling reaches
    * the unique maximal subgraph). Lemma 1 reduction for parameter `k`
    * calls this with `threshold = k − 1`.
    */
  def colorfulCore(g: AttributedGraph, colors: DataFrame, threshold: Int,
                   maxIter: Int = 1000): AttributedGraph =
    peelVertices(g, maxIter) { cur =>
      colorfulDegrees(cur, colors)
        .where(least(col("dA"), col("dB")) >= threshold)
        .select("id")
    }

  /** Enhanced colorful core: keep vertices with `ED >= threshold`
    * (Lemma 2 reduction for parameter `k` uses `threshold = k − 1`).
    */
  def enColorfulCore(g: AttributedGraph, colors: DataFrame, threshold: Int,
                     maxIter: Int = 1000): AttributedGraph =
    peelVertices(g, maxIter) { cur =>
      enhancedDegrees(cur, colors)
        .where(col("ed") >= threshold)
        .select("id")
    }

  private def peelVertices(g: AttributedGraph, maxIter: Int)
                          (survivors: AttributedGraph => DataFrame): AttributedGraph = {
    var cur = g.checkpointed()
    var before = cur.vertices.count()
    var changed = true
    var round = 0
    while (changed && round < maxIter) {
      val nxt = cur.inducedBy(survivors(cur)).checkpointed()
      val after = nxt.vertices.count()
      changed = after != before
      before = after
      cur = nxt
      round += 1
    }
    if (changed)
      throw new IllegalStateException(s"vertex peeling did not reach a fixpoint in $maxIter rounds")
    cur
  }

  // ---------------------------------------------------------------- local

  /** Local colorful degrees `(dA, dB)` restricted to an `alive` mask. */
  def localColorfulDegrees(g: LocalGraph, colors: Array[Int],
                           alive: Array[Boolean]): Array[(Int, Int)] = {
    Array.tabulate(g.n) { u =>
      if (!alive(u)) (0, 0)
      else {
        val seenA = mutable.BitSet.empty
        val seenB = mutable.BitSet.empty
        g.adj(u).foreach { v =>
          if (alive(v)) {
            if (g.attr(v) == 0) seenA += colors(v) else seenB += colors(v)
          }
        }
        (seenA.size, seenB.size)
      }
    }
  }

  /** Local enhanced colorful degree `ED(u)` under an `alive` mask. */
  def localEnhancedDegrees(g: LocalGraph, colors: Array[Int],
                           alive: Array[Boolean]): Array[Int] = {
    Array.tabulate(g.n) { u =>
      if (!alive(u)) 0
      else {
        val flags = mutable.HashMap.empty[Int, Int] // color -> bit0 hasA, bit1 hasB
        g.adj(u).foreach { v =>
          if (alive(v)) {
            val bit = if (g.attr(v) == 0) 1 else 2
            flags.updateWith(colors(v)) { old => Some(old.getOrElse(0) | bit) }
          }
        }
        var cA = 0; var cB = 0; var cM = 0
        flags.valuesIterator.foreach {
          case 1 => cA += 1
          case 2 => cB += 1
          case _ => cM += 1
        }
        edOf(cA, cB, cM)
      }
    }
  }

  /** Local batch peeling to the colorful core; returns surviving internal
    * vertices (sorted).
    */
  def localColorfulCoreVertices(g: LocalGraph, colors: Array[Int], threshold: Int): Array[Int] =
    localPeel(g) { alive =>
      val deg = localColorfulDegrees(g, colors, alive)
      (0 until g.n).filter(v => alive(v) &&
        math.min(deg(v)._1, deg(v)._2) < threshold)
    }

  /** Local batch peeling to the enhanced colorful core. */
  def localEnColorfulCoreVertices(g: LocalGraph, colors: Array[Int], threshold: Int): Array[Int] =
    localPeel(g) { alive =>
      val ed = localEnhancedDegrees(g, colors, alive)
      (0 until g.n).filter(v => alive(v) && ed(v) < threshold)
    }

  private def localPeel(g: LocalGraph)(violators: Array[Boolean] => Seq[Int]): Array[Int] = {
    val alive = Array.fill(g.n)(true)
    var changed = true
    while (changed) {
      val bad = violators(alive)
      changed = bad.nonEmpty
      bad.foreach(alive(_) = false)
    }
    (0 until g.n).filter(alive).toArray
  }

  /** Colorful core numbers by min-first peeling; also yields the colorful
    * degeneracy (Definitions 8–9) as `max(ccore)`. Used by `ub_cd` and by
    * the colorful-core vertex ordering of Algorithm 2.
    */
  def colorfulCoreNumbers(g: LocalGraph, colors: Array[Int]): Array[Int] =
    colorfulCoreDecomposition(g, colors)._1

  /** Colorful-core peel order (CalColorOD in Algorithm 2): the sequence in
    * which min-first peeling removes the vertices.
    */
  def colorfulCorePeelOrder(g: LocalGraph, colors: Array[Int]): Array[Int] =
    colorfulCoreDecomposition(g, colors)._2

  /** (core numbers, peel order) of the colorful core decomposition. */
  def colorfulCoreDecomposition(g: LocalGraph, colors: Array[Int]): (Array[Int], Array[Int]) = {
    val alive = Array.fill(g.n)(true)
    // color multiplicity per (vertex, attr, color) so D_min updates in O(1)
    val cnt = Array.fill(g.n)(Array(mutable.HashMap.empty[Int, Int], mutable.HashMap.empty[Int, Int]))
    val dmin = new Array[Int](g.n)
    (0 until g.n).foreach { u =>
      g.adj(u).foreach { v =>
        val mapv = cnt(u)(g.attr(v))
        mapv.updateWith(colors(v))(o => Some(o.getOrElse(0) + 1))
      }
      dmin(u) = math.min(cnt(u)(0).size, cnt(u)(1).size)
    }
    val ccore = new Array[Int](g.n)
    val order = new Array[Int](g.n)
    var cur = 0
    var removedCount = 0
    while (removedCount < g.n) {
      val u = (0 until g.n).filter(alive).minBy(v => (dmin(v), v))
      cur = math.max(cur, dmin(u))
      ccore(u) = cur
      order(removedCount) = u
      alive(u) = false
      removedCount += 1
      g.adj(u).foreach { v =>
        if (alive(v)) {
          val mapv = cnt(v)(g.attr(u))
          val left = mapv(colors(u)) - 1
          if (left == 0) {
            mapv.remove(colors(u))
            dmin(v) = math.min(cnt(v)(0).size, cnt(v)(1).size)
          } else mapv(colors(u)) = left
        }
      }
    }
    (ccore, order)
  }
}
