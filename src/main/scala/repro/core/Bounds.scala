package repro.core

import repro.graph.{Coloring, LocalGraph}

/** Upper bounds on `MRFC(R, C)` — the maximum fair clique size inside a
  * search instance — Section IV of the paper.
  *
  * All bounds are implemented in *sound* form; where the paper's printed
  * lemma undercounts on clique instances the corrected form is used and
  * the deviation is documented in DESIGN.md §5 (items 2–4):
  *   - `ub_deg = △(G') + 1`, `ub_h = h(G') + 1`
  *   - `ub_cd = 2·△̄(G') + δ + 2`, `ub_ch = 2·h̄(G') + δ + 2`
  *   - `ub_eac = min(c_a+c_b+c_m, 2·(min(c_a,c_b)+c_m)+δ)`
  * Property tests check every bound against the exact optimum on many
  * random instances.
  */
object Bounds {

  /** Which bounds a search configuration evaluates at top-level branches.
    * `ad` is the paper's `ub_AD` group {ub_a, ub_c, ub_ac, ub_eac}
    * (`ub_s` is always applied inside the search itself).
    */
  final case class BoundConfig(
      ad: Boolean = false,
      degeneracy: Boolean = false,
      hIndex: Boolean = false,
      colorfulDegeneracy: Boolean = false,
      colorfulHIndex: Boolean = false,
      colorfulPath: Boolean = false) {
    def any: Boolean = ad || degeneracy || hIndex || colorfulDegeneracy ||
      colorfulHIndex || colorfulPath
  }

  object BoundConfig {
    /** The six configurations benchmarked in Table II. */
    val table2: Seq[(String, BoundConfig)] = Seq(
      "ub_AD" -> BoundConfig(ad = true),
      "ub_AD+ub_deg" -> BoundConfig(ad = true, degeneracy = true),
      "ub_AD+ub_h" -> BoundConfig(ad = true, hIndex = true),
      "ub_AD+ub_cd" -> BoundConfig(ad = true, colorfulDegeneracy = true),
      "ub_AD+ub_ch" -> BoundConfig(ad = true, colorfulHIndex = true),
      "ub_AD+ub_cp" -> BoundConfig(ad = true, colorfulPath = true),
    )
    val none: BoundConfig = BoundConfig()
  }

  /** Lemma 5: size bound. */
  def ubS(rSize: Int, cSize: Int): Int = rSize + cSize

  /** Lemma 6: attribute bound from total attribute counts. */
  def ubA(cntA: Int, cntB: Int, delta: Int): Int =
    if (math.abs(cntA - cntB) <= delta) cntA + cntB
    else 2 * math.min(cntA, cntB) + delta

  /** Lemma 7: color bound (vertices of a clique have distinct colors). */
  def ubC(numColors: Int): Int = numColors

  /** Lemma 8: attribute-color bound from per-attribute color counts. */
  def ubAC(colorsA: Int, colorsB: Int, delta: Int): Int =
    if (math.abs(colorsA - colorsB) <= delta) colorsA + colorsB
    else 2 * math.min(colorsA, colorsB) + delta

  /** Lemma 9 (sound form): enhanced attribute-color bound from the
    * exclusive-a / exclusive-b / mixed color group sizes.
    */
  def ubEAC(cA: Int, cB: Int, cM: Int, delta: Int): Int =
    math.min(cA + cB + cM, 2 * (math.min(cA, cB) + cM) + delta)

  /** Lemma 10 (sound form): degeneracy bound `△(G') + 1`. */
  def ubDegeneracy(g: LocalGraph): Int = g.degeneracy + 1

  /** Lemma 11 (sound form): h-index bound `h(G') + 1`. */
  def ubHIndex(g: LocalGraph): Int = g.hIndex + 1

  /** Lemma 12 (sound form): colorful degeneracy bound `2·△̄ + δ + 2`. */
  def ubColorfulDegeneracy(g: LocalGraph, colors: Array[Int], delta: Int): Int = {
    if (g.n == 0) return 0
    val ccore = ColorfulDegrees.colorfulCoreNumbers(g, colors)
    2 * ccore.max + delta + 2
  }

  /** Lemma 13 (sound form): colorful h-index bound `2·h̄ + δ + 2`. */
  def ubColorfulHIndex(g: LocalGraph, colors: Array[Int], delta: Int): Int = {
    if (g.n == 0) return 0
    val alive = Array.fill(g.n)(true)
    val (dA, dB) = ColorfulDegrees.localColorfulDegrees(g, colors, alive)
    2 * LocalGraph.hIndexOf(Array.tabulate(g.n)(v => math.min(dA(v), dB(v)))) + delta + 2
  }

  /** Lemma 14 / Algorithm 4: longest colorful path in the DAG induced by
    * the (color, id) total order. Directed paths in this DAG have strictly
    * increasing colors, hence are automatically colorful; the DP is a
    * topological-order longest-path computation.
    */
  def ubColorfulPath(g: LocalGraph, colors: Array[Int]): Int = {
    if (g.n == 0) return 0
    val order = (0 until g.n).sortBy(v => (colors(v), g.ids(v))).toArray
    val pos = new Array[Int](g.n)
    order.zipWithIndex.foreach { case (v, i) => pos(v) = i }
    val f = Array.fill(g.n)(1)
    var maxLen = 1
    order.foreach { v =>
      g.adj(v).foreach { u =>
        if (pos(u) < pos(v)) f(v) = math.max(f(v), f(u) + 1)
      }
      maxLen = math.max(maxLen, f(v))
    }
    maxLen
  }

  /** Per-instance color statistics used by the `ub_AD` group:
    * (colors, colors on attribute a, colors on attribute b, colors only on
    * a, colors only on b, colors on both); `colors` are non-negative.
    */
  private def colorStats(g: LocalGraph, colors: Array[Int]): (Int, Int, Int, Int, Int, Int) = {
    var maxColor = -1
    var v = 0
    while (v < g.n) { maxColor = math.max(maxColor, colors(v)); v += 1 }
    // flags(c): bit 0 if color c is on an a-vertex, bit 1 if on a b-vertex
    val flags = new Array[Int](maxColor + 1)
    v = 0
    while (v < g.n) { flags(colors(v)) |= (if (g.attr(v) == 0) 1 else 2); v += 1 }
    var cA = 0; var cB = 0; var cM = 0
    var c = 0
    while (c < flags.length) {
      flags(c) match {
        case 1 => cA += 1
        case 2 => cB += 1
        case 3 => cM += 1
        case _ =>
      }
      c += 1
    }
    (cA + cB + cM, cA + cM, cB + cM, cA, cB, cM)
  }

  /** Evaluate the configured bounds on the subgraph induced by a search
    * instance (the instance graph is colored fresh, as the paper does for
    * `G'`, once a color bound runs). Returns the minimum of the enabled
    * bounds, or `Int.MaxValue` when none is enabled.
    *
    * A caller that only compares the result with a threshold passes it as
    * `floor`: the bounds then run cheapest first (ub_a from the attribute
    * counts, then the coloring and the rest of ub_AD, then the others in
    * the order of [[BoundConfig]]) and evaluation stops as soon as their
    * running minimum is `<= floor`. The result is `<= floor` exactly when
    * the minimum of all enabled bounds is, and equals that minimum
    * otherwise; it is always an upper bound. The default floor evaluates
    * every enabled bound.
    */
  def evaluate(instance: LocalGraph, delta: Int, config: BoundConfig,
               floor: Int = Int.MinValue): Int = {
    if (!config.any) return Int.MaxValue
    val n = instance.n
    if (n == 0) return 0
    var best = Int.MaxValue
    // lower `best` to `ub`; true once it is at or below the floor
    def cut(ub: Int): Boolean = { best = math.min(best, ub); best <= floor }
    lazy val colors = Coloring.greedyLocal(instance)
    if (config.ad) {
      var cntA = 0
      var v = 0
      while (v < n) { if (instance.attr(v) == 0) cntA += 1; v += 1 }
      if (cut(ubA(cntA, n - cntA, delta))) return best
      val (all, colA, colB, cA, cB, cM) = colorStats(instance, colors)
      if (cut(math.min(ubC(all), math.min(ubAC(colA, colB, delta), ubEAC(cA, cB, cM, delta)))))
        return best
    }
    if (config.degeneracy && cut(ubDegeneracy(instance))) return best
    if (config.hIndex && cut(ubHIndex(instance))) return best
    if (config.colorfulDegeneracy && cut(ubColorfulDegeneracy(instance, colors, delta)))
      return best
    if (config.colorfulHIndex && cut(ubColorfulHIndex(instance, colors, delta))) return best
    if (config.colorfulPath) cut(ubColorfulPath(instance, colors))
    best
  }
}
