package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.graph.{AttributedGraph, LocalGraph}

/** Colorful degree (Definition 2), enhanced colorful degree (Definition 4)
  * and the vertex-level reductions built from them: the colorful k-core
  * (Definition 3 / Lemma 1) and the enhanced colorful k-core
  * (Definition 5 / Lemma 2).
  *
  * The DataFrame forms project one aggregate, a vertex's colour groups
  * `(cA, cB, cM)`, and the two cores peel it in `Reductions.peel`. The
  * driver-side forms serve the driver cascade's EnColorfulCore stage, the
  * bounds and heuristics, and the colorful-core peel order of the search;
  * the batch core peels also cross-check the DataFrame ones.
  *
  * `ED(u)` uses the optimal mixed-color assignment closed form
  * `min(c_a + c_m, c_b + c_m, ⌊(c_a + c_b + c_m) / 2⌋)` where `c_a`/`c_b`
  * count colors seen only on attribute-a/-b neighbours of `u` and `c_m`
  * counts colors seen on both (DESIGN.md §5.7).
  */
object ColorfulDegrees {

  /** Distributed colorful degrees: `(id, dA, dB)` — distinct neighbour
    * colors per attribute, `dA = cA + cM` and `dB = cB + cM` of the
    * vertex's colour groups; vertices without neighbours get zeros.
    */
  def colorfulDegrees(g: AttributedGraph, colors: DataFrame): DataFrame =
    colorGroups(g, colors).select(col("id"),
      (col("cA") + col("cM")).as("dA"), (col("cB") + col("cM")).as("dB"))

  /** Distributed enhanced colorful degree: `(id, cA, cB, cM, ed)`. */
  def enhancedDegrees(g: AttributedGraph, colors: DataFrame): DataFrame =
    colorGroups(g, colors).withColumn("ed",
      least(col("cA") + col("cM"), col("cB") + col("cM"),
        floor((col("cA") + col("cB") + col("cM")) / 2).cast("int")))

  /** `(id, cA, cB, cM)`: the colours of each vertex's neighbours seen only
    * on attribute a, only on b, and on both.
    */
  private[core] def colorGroups(g: AttributedGraph, colors: DataFrame): DataFrame =
    ColorfulSupport.colorGroups(g, colors, g.vertices.select("id"),
      g.symmetricEdges.select(col("x").as("id"), col("y").as("w")))

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
    Reductions.peel(g, colors, edgeLevel = false, maxIter)(
      ColorfulSupport.keeps((lit(threshold), lit(threshold)), enhanced = false))

  /** Enhanced colorful core: keep vertices with `ED >= threshold`
    * (Lemma 2 reduction for parameter `k` uses `threshold = k − 1`).
    */
  def enColorfulCore(g: AttributedGraph, colors: DataFrame, threshold: Int,
                     maxIter: Int = 1000): AttributedGraph =
    Reductions.peel(g, colors, edgeLevel = false, maxIter)(
      ColorfulSupport.keeps((lit(threshold), lit(threshold)), enhanced = true))

  // ---------------------------------------------------------------- local

  /** Local colorful degrees `(dA, dB)` restricted to an `alive` mask:
    * `dA(u)` / `dB(u)` count the distinct colors among `u`'s alive
    * attribute-a / attribute-b neighbours, 0 for dead `u`. `colors` are
    * non-negative.
    */
  def localColorfulDegrees(g: LocalGraph, colors: Array[Int],
                           alive: Array[Boolean]): (Array[Int], Array[Int]) = {
    val (dA, dB, _) = localColorCounts(g, colors, alive)
    (dA, dB)
  }

  /** Local enhanced colorful degree `ED(u)` under an `alive` mask, 0 for
    * dead `u`. `colors` are non-negative.
    */
  def localEnhancedDegrees(g: LocalGraph, colors: Array[Int],
                           alive: Array[Boolean]): Array[Int] = {
    val (dA, dB, cM) = localColorCounts(g, colors, alive)
    Array.tabulate(g.n)(u => if (alive(u)) edOf(dA(u) - cM(u), dB(u) - cM(u), cM(u)) else 0)
  }

  /** `(dA, dB, cM)` per vertex under an `alive` mask: [[localColorfulDegrees]]
    * plus `cM(u)`, the colors seen on alive neighbours of both attributes.
    */
  private def localColorCounts(g: LocalGraph, colors: Array[Int],
                               alive: Array[Boolean]): (Array[Int], Array[Int], Array[Int]) = {
    val dA = new Array[Int](g.n)
    val dB = new Array[Int](g.n)
    val cM = new Array[Int](g.n)
    var maxColor = -1
    var i = 0
    while (i < colors.length) { maxColor = math.max(maxColor, colors(i)); i += 1 }
    // seenA(c) == u + 1 marks color c as seen on an attribute-a neighbour of u
    val seenA = new Array[Int](maxColor + 1)
    val seenB = new Array[Int](maxColor + 1)
    var u = 0
    while (u < g.n) {
      if (alive(u)) {
        val nb = g.adj(u)
        var j = 0
        while (j < nb.length) {
          val v = nb(j)
          if (alive(v)) {
            val c = colors(v)
            if (g.attr(v) == 0) {
              if (seenA(c) != u + 1) { seenA(c) = u + 1; dA(u) += 1; if (seenB(c) == u + 1) cM(u) += 1 }
            } else if (seenB(c) != u + 1) {
              seenB(c) = u + 1; dB(u) += 1; if (seenA(c) == u + 1) cM(u) += 1
            }
          }
          j += 1
        }
      }
      u += 1
    }
    (dA, dB, cM)
  }

  /** Local batch peeling to the colorful core; returns surviving internal
    * vertices (sorted).
    */
  def localColorfulCoreVertices(g: LocalGraph, colors: Array[Int], threshold: Int): Array[Int] =
    localPeel(g) { alive =>
      val (dA, dB) = localColorfulDegrees(g, colors, alive)
      (0 until g.n).filter(v => alive(v) && math.min(dA(v), dB(v)) < threshold)
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

  /** (core numbers, peel order) of the colorful core decomposition:
    * repeatedly remove the alive vertex with the smallest `(D_min, id)`.
    * `colors` are non-negative and small, such as a greedy coloring's.
    *
    * Every vertex counts its alive neighbours per `(color, attr)` class;
    * each adjacency entry knows its class counter and its position in the
    * other endpoint's (sorted) list, so a removal updates a neighbour's
    * `D_min` in O(1). Alive vertices sit in one bitset bucket per `D_min`
    * value; the next vertex is the lowest set bit of the lowest non-empty
    * bucket. O(m + n·(c + n/64)) for `c` colors, against O(n²) for a scan.
    */
  def colorfulCoreDecomposition(g: LocalGraph, colors: Array[Int]): (Array[Int], Array[Int]) = {
    val n = g.n
    // adjacency entry e = start(u) + j is u's j-th neighbour
    val start = new Array[Int](n + 1)
    var u = 0
    while (u < n) { start(u + 1) = start(u) + g.degree(u); u += 1 }
    // rev(e): position of u in its j-th neighbour's list (lists are sorted,
    // so the entries pointing at w fill adj(w) in ascending u)
    val rev = new Array[Int](start(n))
    val filled = new Array[Int](n)
    var maxColor = -1
    u = 0
    while (u < n) {
      val nb = g.adj(u)
      var j = 0
      while (j < nb.length) {
        rev(start(u) + j) = filled(nb(j))
        filled(nb(j)) += 1
        j += 1
      }
      maxColor = math.max(maxColor, colors(u))
      u += 1
    }
    // counter(e): u's counter of the class of its j-th neighbour; alive(c)
    // is how many of u's alive neighbours are in class counter c
    val counter = new Array[Int](start(n))
    val alive = new Array[Int](start(n))
    // distinct neighbour colors per attribute: dist(2u) for a, dist(2u + 1) for b
    val dist = new Array[Int](2 * n)
    val dmin = new Array[Int](n)
    val owner = Array.fill(2 * (maxColor + 1))(-1)
    val ownerCounter = new Array[Int](owner.length)
    var counters = 0
    var maxDmin = 0
    u = 0
    while (u < n) {
      val nb = g.adj(u)
      var j = 0
      while (j < nb.length) {
        val c = 2 * colors(nb(j)) + g.attr(nb(j))
        if (owner(c) != u) {
          owner(c) = u
          ownerCounter(c) = counters
          counters += 1
          dist(2 * u + g.attr(nb(j))) += 1
        }
        counter(start(u) + j) = ownerCounter(c)
        alive(ownerCounter(c)) += 1
        j += 1
      }
      dmin(u) = math.min(dist(2 * u), dist(2 * u + 1))
      maxDmin = math.max(maxDmin, dmin(u))
      u += 1
    }

    // bucket d holds the alive vertices with D_min = d as bits
    // bits(d * words until (d + 1) * words); none lies below word low(d)
    val words = (n + 63) >>> 6
    val bits = new Array[Long]((maxDmin + 1) * words)
    val size = new Array[Int](maxDmin + 1)
    val lowWord = Array.fill(maxDmin + 1)(words)
    def insert(v: Int, d: Int): Unit = {
      bits(d * words + (v >>> 6)) |= 1L << v
      size(d) += 1
      lowWord(d) = math.min(lowWord(d), v >>> 6)
    }
    def remove(v: Int, d: Int): Unit = {
      bits(d * words + (v >>> 6)) &= ~(1L << v)
      size(d) -= 1
    }
    u = 0
    while (u < n) { insert(u, dmin(u)); u += 1 }

    val removed = new Array[Boolean](n)
    val ccore = new Array[Int](n)
    val order = new Array[Int](n)
    var low = 0
    var cur = 0
    var r = 0
    while (r < n) {
      while (size(low) == 0) low += 1
      var w = lowWord(low)
      while (bits(low * words + w) == 0) w += 1
      lowWord(low) = w
      u = (w << 6) | java.lang.Long.numberOfTrailingZeros(bits(low * words + w))
      remove(u, low)
      removed(u) = true
      cur = math.max(cur, low)
      ccore(u) = cur
      order(r) = u
      r += 1
      val nb = g.adj(u)
      val au = g.attr(u)
      var j = 0
      while (j < nb.length) {
        val v = nb(j)
        if (!removed(v)) {
          val c = counter(start(v) + rev(start(u) + j))
          alive(c) -= 1
          if (alive(c) == 0) {
            dist(2 * v + au) -= 1
            val nd = math.min(dist(2 * v), dist(2 * v + 1))
            if (nd != dmin(v)) {
              remove(v, dmin(v))
              insert(v, nd)
              dmin(v) = nd
              low = math.min(low, nd)
            }
          }
        }
        j += 1
      }
    }
    (ccore, order)
  }
}
