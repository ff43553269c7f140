package repro.core

import repro.graph.{Coloring, LocalGraph}

import scala.collection.mutable

/** Reference kernels the production search is checked against.
  *
  * [[searchComponent]] is the list-based MaxRFC component search: candidate
  * sets are sorted arrays of vertex ids, filtered by `hasEdge` binary
  * searches; [[maxRFC]] runs it over the components one after another.
  * [[colorfulCoreDecomposition]] is the min-first colorful core peeling by
  * a linear `minBy` scan. `Search.searchComponent` must visit the
  * identical tree (same nodes, prunes and clique) and
  * `ColorfulDegrees.colorfulCoreDecomposition` must return the identical
  * core numbers and peel order (`SearchKernelSpec`); `Search.maxRFC` must
  * return the identical clique at any parallelism (`SearchParallelSpec`).
  *
  * [[alternatingMaxRFC]] is the paper-literal Algorithm 3 with forced
  * attribute alternation. As printed it is incomplete (DESIGN.md §5.1) —
  * it is kept for comparison and tested for soundness, not optimality
  * (`SearchSpec`).
  */
object SearchReference {

  /** (core numbers, peel order): repeatedly remove the alive vertex with
    * the smallest `(D_min, id)`.
    */
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

  /** The one-thread component loop over [[searchComponent]]: components in
    * order, each starting from the best clique so far, skipped when too
    * small to beat it; `nodeLimit` holds per component. Same contract as
    * `Search.maxRFC`.
    */
  def maxRFC(g: LocalGraph, k: Int, delta: Int, bounds: Bounds.BoundConfig,
             initialBest: Array[Int], nodeLimit: Long = Long.MaxValue): Search.Result = {
    var best = initialBest
    var nodes = 0L
    var prunedByBound = 0L
    var truncated = false
    g.connectedComponents.foreach { comp =>
      if (comp.length >= math.max(2 * k, best.length + 1) && !truncated) {
        val res = searchComponent(g.inducedSubgraph(comp), k, delta, bounds, best.length,
          nodeLimit)
        nodes += res.nodes
        prunedByBound += res.prunedByBound
        truncated ||= res.truncated
        if (res.size > best.length) best = res.clique.map(comp)
      }
    }
    Search.Result(best, nodes, prunedByBound, truncated, initialBest.length)
  }

  /** Search one connected component (internal ids of `sub`); same contract
    * as `Search.searchComponent`.
    */
  def searchComponent(sub: LocalGraph, k: Int, delta: Int,
                      bounds: Bounds.BoundConfig,
                      globalBest: Int,
                      nodeLimit: Long = Long.MaxValue): Search.Result = {
    val colors = Coloring.greedyLocal(sub)
    val peel = colorfulCoreDecomposition(sub, colors)._2
    val ord = new Array[Int](sub.n)
    peel.zipWithIndex.foreach { case (v, i) => ord(v) = i }

    var best = Array.empty[Int]
    var bestSize = globalBest
    var nodes = 0L
    var prunedByBound = 0L
    var truncated = false

    val rStack = mutable.ArrayBuffer.empty[Int]
    var cntA = 0
    var cntB = 0

    def expand(cands: Array[Int], candA: Int, candB: Int): Unit = {
      if (truncated) return
      nodes += 1
      if (nodes > nodeLimit) { truncated = true; return }
      val rSize = rStack.length
      if (FairClique.isFair(cntA, cntB, k, delta) && rSize > bestSize) {
        bestSize = rSize
        best = rStack.toArray
      }
      if (rSize + cands.length <= bestSize) return
      if (rSize + cands.length < 2 * k) return
      if (cntA + candA < k || cntB + candB < k) return

      var i = 0
      var remA = candA
      var remB = candB
      while (i < cands.length) {
        val v = cands(i)
        // candidates after v in peel order that are adjacent to v
        val rest = new mutable.ArrayBuilder.ofInt
        var nA = 0; var nB = 0
        var j = i + 1
        while (j < cands.length) {
          val w = cands(j)
          if (sub.hasEdge(v, w)) {
            rest += w
            if (sub.attr(w) == 0) nA += 1 else nB += 1
          }
          j += 1
        }
        rStack += v
        if (sub.attr(v) == 0) cntA += 1 else cntB += 1
        expand(rest.result(), nA, nB)
        if (sub.attr(v) == 0) cntA -= 1 else cntB -= 1
        rStack.remove(rStack.length - 1)

        if (sub.attr(v) == 0) remA -= 1 else remB -= 1
        // later iterations use only candidates after position i: stop when
        // even taking all of them cannot beat the incumbent or reach k/2k
        val left = cands.length - i - 1
        if (rSize + left <= bestSize) return
        if (rSize + left < 2 * k) return
        if (cntA + remA < k || cntB + remB < k) return
        i += 1
      }
    }

    // root branches in peel order; candidates are later-ordered neighbours
    peel.foreach { u =>
      if (truncated) return Search.Result(best, nodes, prunedByBound, truncated, globalBest)
      val cands = sub.adj(u).filter(w => ord(w) > ord(u)).sortBy(ord)
      val (ca, cb) = FairClique.counts(sub, cands)
      if (1 + cands.length >= 2 * k && 1 + cands.length > bestSize) {
        var proceed = true
        if (bounds.any && cands.length >= 32) {
          val instance = sub.inducedSubgraph(u +: cands)
          val ub = Bounds.evaluate(instance, delta, bounds)
          if (ub < 2 * k || ub <= bestSize) { proceed = false; prunedByBound += 1 }
        }
        if (proceed) {
          rStack.clear()
          rStack += u
          cntA = if (sub.attr(u) == 0) 1 else 0
          cntB = 1 - cntA
          expand(cands, ca, cb)
        }
      }
    }
    Search.Result(best, nodes, prunedByBound, truncated, globalBest)
  }

  // ------------------------------------------------- paper-literal variant

  /** Algorithm 3's alternating Branch: forced attribute alternation with
    * the `a_max` δ-cap and the basic prunes. Two adaptations over the
    * printed pseudo-code (DESIGN.md §5.1): the ordering filter
    * `O(v) > O(u)` is applied *per attribute class* (a globally increasing
    * alternating sequence almost never exists, making the printed filter
    * discard nearly everything), and a fairness check guards every `R*`
    * update. Still incomplete in corner cases where the forced attribute
    * class holds only non-optimal vertices — sound but possibly
    * sub-optimal, which is exactly what the comparison tests assert.
    */
  def alternatingMaxRFC(g: LocalGraph, k: Int, delta: Int): Search.Result = {
    var best = Array.empty[Int]
    var nodes = 0L

    g.connectedComponents.foreach { comp =>
      val sub = g.inducedSubgraph(comp)
      val colors = Coloring.greedyLocal(sub)
      val peel = ColorfulDegrees.colorfulCorePeelOrder(sub, colors)
      val ord = new Array[Int](sub.n)
      peel.zipWithIndex.foreach { case (v, i) => ord(v) = i }
      var bestSize = best.length

      def branch(r: List[Int], c: Array[Int], attrChoose: Int, aMax0: Int): Unit = {
        nodes += 1
        var aMax = aMax0
        var cands = c
        val (ra, rb) = FairClique.counts(sub, r)
        // lines 4–6: fix the δ-cap once the forced attribute exhausts
        if (!cands.exists(sub.attr(_) == attrChoose) && aMax == -1)
          aMax = (if (attrChoose == 0) ra else rb) + delta
        // lines 7–8: stop growing an attribute at the cap
        if (aMax >= 0) {
          if (ra == aMax) cands = cands.filter(sub.attr(_) != 0)
          if (rb == aMax) cands = cands.filter(sub.attr(_) != 1)
        }
        // lines 9–11: leaf
        if (cands.isEmpty) {
          if (r.length > bestSize && FairClique.isFairClique(sub, r, k, delta)) {
            bestSize = r.length
            best = r.toArray.map(comp)
          }
          return
        }
        // lines 12–13: flip when the forced attribute has no candidates
        if (!cands.exists(sub.attr(_) == attrChoose)) {
          branch(r, cands, 1 - attrChoose, aMax)
          return
        }
        // line 14: extend with each candidate of the forced attribute
        cands.filter(sub.attr(_) == attrChoose).foreach { u =>
          val newR = u :: r
          val newC = cands.filter(v => v != u && sub.hasEdge(u, v) &&
            (sub.attr(v) != sub.attr(u) || ord(v) > ord(u)))
          val (nra, nrb) = FairClique.counts(sub, newR)
          val (nca, ncb) = FairClique.counts(sub, newC)
          val ok = newR.length + newC.length > bestSize &&
            newR.length + newC.length >= 2 * k &&
            nra + nca >= k && nrb + ncb >= k
          if (ok) branch(newR, newC, 1 - attrChoose, aMax)
        }
      }

      branch(Nil, peel, 0, -1)
    }
    Search.Result(best, nodes, 0, truncated = false, seedSize = 0)
  }
}
