package repro.core

import repro.graph.{Coloring, LocalGraph}

/** The linear-time heuristics of Section V: DegHeur (Algorithm 5),
  * ColorfulDegHeur (its colorful-degree variant) and the HeurRFC framework
  * (Algorithm 6). All run on the (reduced) local graph; the fair clique
  * they return seeds `R*` in the exact search for extra pruning.
  *
  * Deviation (DESIGN.md §5): Algorithm 5 updates `R*` at `C = ∅` without a
  * fairness check; we return the greedy clique only when it actually
  * satisfies the fairness condition — otherwise the heuristic fails and
  * returns the empty set, which is always safe as a seed.
  */
object Heuristics {

  /** One greedy descent: repeatedly add the best-scoring candidate of the
    * alternating attribute (Algorithm 5's HeurBranch is a straight-line
    * recursion — it never backtracks). `score(v)` ranks candidates, the
    * lowest id first on ties; DegHeur uses the degree, ColorfulDegHeur the
    * min colorful degree. The clique lists the last vertex added first.
    */
  private def greedyDescent(g: LocalGraph, k: Int, delta: Int, score: Array[Int]): Array[Int] = {
    if (g.n == 0) return Array.empty
    var start = 0
    var u = 1
    while (u < g.n) { if (score(u) > score(start)) start = u; u += 1 }
    // r(0 until rLen): the clique in the order added; c(0 until cLen): the
    // candidates, ascending, cA of them of attribute a
    val c = g.adj(start).clone()
    val r = new Array[Int](c.length + 1)
    r(0) = start
    var rLen = 1
    var rA = if (g.attr(start) == 0) 1 else 0
    var rB = 1 - rA
    var cLen = c.length
    var cA = 0
    var i = 0
    while (i < cLen) { if (g.attr(c(i)) == 0) cA += 1; i += 1 }
    var attrChoose = 1 - g.attr(start)
    var aMax = -1

    while (true) {
      // fix the δ-cap once the forced attribute has no candidates left
      if (aMax == -1 && (if (attrChoose == 0) cA else cLen - cA) == 0)
        aMax = (if (attrChoose == 0) rA else rB) + delta
      if (aMax >= 0 && (rA == aMax || rB == aMax)) {
        // drop the candidates of each attribute that reached the cap
        var len = 0
        i = 0
        while (i < cLen) {
          if ((if (g.attr(c(i)) == 0) rA else rB) != aMax) { c(len) = c(i); len += 1 }
          i += 1
        }
        cLen = len
        cA = if (rA == aMax) 0 else len
      }
      if (cLen == 0) {
        return if (FairClique.isFair(rA, rB, k, delta)) r.take(rLen).reverse else Array.empty
      }
      if ((if (attrChoose == 0) cA else cLen - cA) == 0) {
        attrChoose = 1 - attrChoose
      } else {
        var v = -1
        i = 0
        while (i < cLen) {
          val w = c(i)
          if (g.attr(w) == attrChoose && (v < 0 || score(w) > score(v))) v = w
          i += 1
        }
        attrChoose = 1 - g.attr(v)
        r(rLen) = v
        rLen += 1
        if (g.attr(v) == 0) rA += 1 else rB += 1
        // c ∩ N(v), in place: both are ascending, and v is not its own neighbour
        val nb = g.adj(v)
        var len = 0
        var j = 0
        i = 0
        cA = 0
        while (i < cLen && j < nb.length) {
          if (c(i) == nb(j)) {
            c(len) = c(i)
            if (g.attr(c(i)) == 0) cA += 1
            len += 1; i += 1; j += 1
          } else if (c(i) < nb(j)) i += 1
          else j += 1
        }
        cLen = len
        // Algorithm 5 lines 24–27: give up when the remainder cannot reach
        // a fair clique at all
        if (rLen + cLen < 2 * k) return Array.empty
        if (rA + cA < k || rB + (cLen - cA) < k) return Array.empty
      }
    }
    Array.empty // unreachable
  }

  /** Degree-based greedy (Algorithm 5). Returns internal ids, or empty. */
  def degHeur(g: LocalGraph, k: Int, delta: Int): Array[Int] =
    greedyDescent(g, k, delta, Array.tabulate(g.n)(g.degree))

  /** Colorful-degree-based greedy: candidates ranked by
    * `min(D_a(v), D_b(v))` computed once on `g` with a fresh coloring.
    */
  def colorfulDegHeur(g: LocalGraph, k: Int, delta: Int): Array[Int] = {
    if (g.n == 0) return Array.empty
    val colors = Coloring.greedyLocal(g)
    val (dA, dB) = ColorfulDegrees.localColorfulDegrees(g, colors, Array.fill(g.n)(true))
    greedyDescent(g, k, delta, Array.tabulate(g.n)(v => math.min(dA(v), dB(v))))
  }

  /** HeurRFC outcome: the fair clique, internal ids of the graph searched. */
  final case class HeurResult(clique: Array[Int])

  /** Algorithm 6: DegHeur, shrink to the (|R*|−1)-core, ColorfulDegHeur
    * on that core, keep the larger clique. Returned internal ids refer to
    * `g`.
    */
  def heurRFC(g: LocalGraph, k: Int, delta: Int): HeurResult = {
    val best = degHeur(g, k, delta)
    // a clique at least as large as R* lies in the (|R*|−1)-core
    val kept = if (best.length > 1) g.kCoreVertices(best.length - 1) else Array.range(0, g.n)
    val core = if (kept.length == g.n) g else g.inducedSubgraph(kept, Array.fill(g.n)(-1))
    val alt = colorfulDegHeur(core, k, delta)
    HeurResult(if (alt.length > best.length) alt.map(kept) else best)
  }
}
