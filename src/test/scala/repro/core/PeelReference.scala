package repro.core

import repro.graph.LocalGraph

import scala.collection.mutable

/** Plain references for the driver-side edge peels of `LocalReductions`:
  * per-edge supports recomputed from scratch, and batch peeling rounds
  * that delete every violating edge at once until none is left. They
  * reach the same unique maximal subgraph as the incremental peel.
  */
object PeelReference {

  /** Local colorful supports for every surviving edge: map from canonical
    * internal edge to `(supA, supB)`; honours an edge-alive predicate.
    */
  def localColorfulSupports(g: LocalGraph, colors: Array[Int],
                            edgeAlive: (Int, Int) => Boolean): mutable.Map[(Int, Int), (Int, Int)] = {
    val out = mutable.HashMap.empty[(Int, Int), (Int, Int)]
    (0 until g.n).foreach { u =>
      g.adj(u).foreach { v =>
        if (u < v && edgeAlive(u, v)) {
          val seenA = mutable.BitSet.empty
          val seenB = mutable.BitSet.empty
          g.intersectNeighbors(u, g.adj(v)).foreach { w =>
            if (edgeAlive(u, w) && edgeAlive(v, w)) {
              if (g.attr(w) == 0) seenA += colors(w) else seenB += colors(w)
            }
          }
          out((u, v)) = (seenA.size, seenB.size)
        }
      }
    }
    out
  }

  /** Local enhanced-support groups `(cA, cB, cM)` per surviving edge. */
  def localEnhancedGroups(g: LocalGraph, colors: Array[Int],
                          edgeAlive: (Int, Int) => Boolean): mutable.Map[(Int, Int), (Int, Int, Int)] = {
    val out = mutable.HashMap.empty[(Int, Int), (Int, Int, Int)]
    (0 until g.n).foreach { u =>
      g.adj(u).foreach { v =>
        if (u < v && edgeAlive(u, v)) {
          val flags = mutable.HashMap.empty[Int, Int]
          g.intersectNeighbors(u, g.adj(v)).foreach { w =>
            if (edgeAlive(u, w) && edgeAlive(v, w)) {
              val bit = if (g.attr(w) == 0) 1 else 2
              flags.updateWith(colors(w))(o => Some(o.getOrElse(0) | bit))
            }
          }
          var cA = 0; var cB = 0; var cM = 0
          flags.valuesIterator.foreach {
            case 1 => cA += 1
            case 2 => cB += 1
            case _ => cM += 1
          }
          out((u, v)) = (cA, cB, cM)
        }
      }
    }
    out
  }

  /** Batch-peeling reference for `LocalReductions.colorfulSup`. */
  def colorfulSupBatch(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph =
    peelEdgesLocal(g) { (cur, aliveEdge) =>
      localColorfulSupports(cur, colors, aliveEdge).collect {
        case ((u, v), (sA, sB)) if LocalReductions.supViolated(cur.attr(u), cur.attr(v), sA, sB, k) =>
          (u, v)
      }.toSeq
    }

  /** Batch-peeling reference for `LocalReductions.enColorfulSup`. */
  def enColorfulSupBatch(g: LocalGraph, colors: Array[Int], k: Int): LocalGraph =
    peelEdgesLocal(g) { (cur, aliveEdge) =>
      localEnhancedGroups(cur, colors, aliveEdge).collect {
        case ((u, v), (cA, cB, cM))
            if LocalReductions.enSupViolated(cur.attr(u), cur.attr(v), cA, cB, cM, k) => (u, v)
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
    withoutEdges(g, dead.toSet)
  }

  /** `g` after dropping the given undirected edges (internal ids). */
  def withoutEdges(g: LocalGraph, dropped: Set[(Int, Int)]): LocalGraph = {
    def gone(u: Int, v: Int): Boolean =
      dropped.contains((math.min(u, v), math.max(u, v)))
    val newAdj = Array.tabulate(g.n)(u => g.adj(u).filter(v => !gone(u, v)))
    new LocalGraph(g.ids, g.attr, newAdj)
  }
}
