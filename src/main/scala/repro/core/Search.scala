package repro.core

import repro.graph.{Coloring, LocalGraph}

import scala.collection.mutable

/** The maximum fair clique branch-and-bound (Algorithms 2–3).
  *
  * [[maxRFC]] is a *complete* ordered branch-and-bound: root branches
  * follow the colorful-core peel order (CalColorOD); within a branch every
  * clique is visited exactly once via the increasing-order discipline, and
  * every visited `R` is tested against the fairness predicate (so
  * non-maximal optima inside larger unfair cliques are found). Pruning:
  *   - `ub_s`: `|R| + |C| <= |R*|` or `< 2k` (lines 19–20 of Algorithm 3);
  *   - per-attribute counts: `cnt_R(x) + cnt_C(x) < k` (lines 21–23);
  *   - the configured upper bounds of Section IV at top-level branches
  *     ("when selecting vertices to be added to R for the first time").
  *
  * The paper-literal Algorithm 3 with forced attribute alternation is
  * incomplete as printed (DESIGN.md §5.1); it lives in test scope
  * (`SearchReference.alternatingMaxRFC`), tested for soundness only.
  */
object Search {

  /** Search outcome: optimum clique (internal ids of `g`), counters, and
    * whether a node budget cut the search short (benches report such runs
    * as "INF", like the paper's 12-hour timeout).
    */
  final case class Result(clique: Array[Int], nodes: Long, prunedByBound: Long,
                          truncated: Boolean = false) {
    def size: Int = clique.length
  }

  /** Complete maximum fair clique search over `g`.
    *
    * @param initialBest a known fair clique (e.g. from HeurRFC) used to
    *                    seed `R*` for pruning; must be fair in `g`.
    * @param nodeLimit   abort (per component) after this many search nodes;
    *                    the result is then a lower bound flagged truncated.
    */
  def maxRFC(g: LocalGraph, k: Int, delta: Int,
             bounds: Bounds.BoundConfig = Bounds.BoundConfig.none,
             initialBest: Array[Int] = Array.empty,
             nodeLimit: Long = Long.MaxValue): Result = {
    var best = initialBest
    var nodes = 0L
    var prunedByBound = 0L
    var truncated = false

    g.connectedComponents.foreach { comp =>
      if (comp.length >= math.max(2 * k, best.length + 1) && !truncated) {
        val sub = g.inducedSubgraph(comp)
        val res = searchComponent(sub, k, delta, bounds, best.length, nodeLimit)
        nodes += res.nodes
        prunedByBound += res.prunedByBound
        truncated ||= res.truncated
        if (res.size > best.length) best = res.clique.map(comp)
      }
    }
    Result(best, nodes, prunedByBound, truncated)
  }

  /** Search one connected component (internal ids of `sub`).
    *
    * Root `u`'s candidates are its later neighbours in peel order, indexed
    * `0 until d` by that order. The search runs on bitsets over these
    * positions (in the style of BBMC, San Segundo et al. 2011): row `p`
    * holds the later candidates adjacent to candidate `p`, so a child's
    * candidate set is one AND per word and its attribute counts are bit
    * counts. Rows are triangular (word `p >> 6` onwards), about `d²/16`
    * bytes, and are built only for roots that pass the node-entry prunes.
    * Set bits are walked in ascending position, i.e. in peel order, so
    * the tree, its prunes and the clique are those of the list-based
    * search (`SearchReference`, test scope).
    */
  private[core] def searchComponent(sub: LocalGraph, k: Int, delta: Int,
                                    bounds: Bounds.BoundConfig,
                                    globalBest: Int,
                                    nodeLimit: Long = Long.MaxValue): Result = {
    val n = sub.n
    val colors = Coloring.greedyLocal(sub)
    val peel = ColorfulDegrees.colorfulCorePeelOrder(sub, colors)
    val ord = new Array[Int](n)
    (0 until n).foreach(i => ord(peel(i)) = i)

    var best = Array.empty[Int]
    var bestSize = globalBest
    var nodes = 0L
    var prunedByBound = 0L
    var truncated = false

    // the current root's instance: candidates by position, bitset rows
    // (row p at rows(rowStart(p)), words p >> 6 until `words`) and the
    // positions of attribute-a candidates
    var cands = Array.empty[Int]
    var words = 0
    var rows = Array.empty[Long]
    var rowStart = Array.empty[Int]
    var maskA = Array.empty[Long]
    // scratch vertex -> position map, -1 outside the instance being built
    val pos = Array.fill(n)(-1)
    // sets(r): candidate set of the node whose R has r vertices
    val sets = mutable.ArrayBuffer.empty[Array[Long]]
    val rStack = new Array[Int](n)
    var cntA = 0
    var cntB = 0

    def setAt(r: Int): Array[Long] = {
      while (sets.length <= r) sets += new Array[Long](words)
      if (sets(r).length < words) sets(r) = new Array[Long](words)
      sets(r)
    }

    // count the node, record a fair R, and tell whether it may branch
    def enter(rSize: Int, cSize: Int, candA: Int): Boolean = {
      if (truncated) return false
      nodes += 1
      if (nodes > nodeLimit) { truncated = true; return false }
      if (FairClique.isFair(cntA, cntB, k, delta) && rSize > bestSize) {
        bestSize = rSize
        best = java.util.Arrays.copyOf(rStack, rSize)
      }
      rSize + cSize > bestSize && rSize + cSize >= 2 * k &&
        cntA + candA >= k && cntB + (cSize - candA) >= k
    }

    // extend R (rSize vertices) by each candidate in sets(rSize), whose
    // set bits lie in words lo until `words`
    def branch(rSize: Int, lo: Int, cSize: Int, candA: Int): Unit = {
      val cur = sets(rSize)
      val next = setAt(rSize + 1)
      var remA = candA
      var remB = cSize - candA
      var left = cSize
      var w = lo
      while (w < words) {
        var bits = cur(w)
        while (bits != 0) {
          val p = (w << 6) | java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          // candidates after p in the set that are adjacent to p
          val row = rowStart(p) - w
          var nLo = words
          var nSize = 0
          var nA = 0
          var x = w
          while (x < words) {
            val b = cur(x) & rows(row + x)
            next(x) = b
            if (b != 0) {
              if (nLo == words) nLo = x
              nSize += java.lang.Long.bitCount(b)
              nA += java.lang.Long.bitCount(b & maskA(x))
            }
            x += 1
          }
          val isA = (maskA(w) & (1L << p)) != 0
          rStack(rSize) = cands(p)
          if (isA) cntA += 1 else cntB += 1
          if (enter(rSize + 1, nSize, nA)) branch(rSize + 1, nLo, nSize, nA)
          if (isA) { cntA -= 1; remA -= 1 } else { cntB -= 1; remB -= 1 }
          left -= 1
          // later iterations use only candidates after p: stop when even
          // taking all of them cannot beat the incumbent or reach k/2k
          if (truncated) return
          if (rSize + left <= bestSize) return
          if (rSize + left < 2 * k) return
          if (cntA + remA < k || cntB + remB < k) return
        }
        w += 1
      }
    }

    // rows, attribute mask and full candidate set of the current root
    def buildRows(): Unit = {
      val d = cands.length
      words = (d + 63) >>> 6
      if (rowStart.length < d) rowStart = new Array[Int](d)
      var size = 0
      var p = 0
      while (p < d) { rowStart(p) = size; size += words - (p >> 6); p += 1 }
      if (rows.length < size) rows = new Array[Long](size)
      else java.util.Arrays.fill(rows, 0, size, 0L)
      if (maskA.length < words) maskA = new Array[Long](words)
      else java.util.Arrays.fill(maskA, 0, words, 0L)
      val full = setAt(1)
      java.util.Arrays.fill(full, 0, words, -1L)
      if ((d & 63) != 0) full(words - 1) = (1L << d) - 1
      p = 0
      while (p < d) { pos(cands(p)) = p; p += 1 }
      p = 0
      while (p < d) {
        val v = cands(p)
        if (sub.attr(v) == 0) maskA(p >> 6) |= 1L << p
        val row = rowStart(p) - (p >> 6)
        val nb = sub.adj(v)
        var j = 0
        while (j < nb.length) {
          val q = pos(nb(j))
          if (q > p) rows(row + (q >> 6)) |= 1L << q
          j += 1
        }
        p += 1
      }
      p = 0
      while (p < d) { pos(cands(p)) = -1; p += 1 }
    }

    // root branches in peel order; candidates are later-ordered neighbours
    var r = 0
    while (r < n && !truncated) {
      val u = peel(r)
      // peel positions of u's later neighbours
      val later = sub.adj(u).clone()
      var d = 0
      var j = 0
      while (j < later.length) {
        if (ord(later(j)) > r) { later(d) = ord(later(j)); d += 1 }
        j += 1
      }
      if (1 + d >= 2 * k && 1 + d > bestSize) {
        java.util.Arrays.sort(later, 0, d)
        cands = new Array[Int](d)
        j = 0
        while (j < d) { cands(j) = peel(later(j)); j += 1 }
        var proceed = true
        // evaluating a bound costs an induced subgraph + coloring; on tiny
        // instances the search itself is cheaper than the bound
        if (bounds.any && d >= 32) {
          val keep = (u +: cands).sorted
          val ub = Bounds.evaluate(sub.inducedSubgraph(keep, pos), delta, bounds)
          if (ub < 2 * k || ub <= bestSize) { proceed = false; prunedByBound += 1 }
        }
        if (proceed) {
          rStack(0) = u
          cntA = if (sub.attr(u) == 0) 1 else 0
          cntB = 1 - cntA
          var candA = 0
          j = 0
          while (j < d) { if (sub.attr(cands(j)) == 0) candA += 1; j += 1 }
          if (enter(1, d, candA)) {
            buildRows()
            branch(1, 0, d, candA)
          }
        }
      }
      r += 1
    }
    Result(best, nodes, prunedByBound, truncated)
  }
}
