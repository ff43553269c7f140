package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.LocalGraph
import repro.synth.GraphGen

/** DegHeur / ColorfulDegHeur / HeurRFC (Algorithms 5–6). */
class HeuristicsSpec extends AnyFunSuite {

  for (seed <- 1 to 20) {
    test(s"degHeur output is a fair clique or empty (seed $seed)") {
      val g = GraphGen.randomLocal(30, 0.3, seed)
      for (k <- 1 to 3; delta <- 1 to 2) {
        val r = Heuristics.degHeur(g, k, delta)
        if (r.nonEmpty) assert(FairClique.isFairClique(g, r.toSeq, k, delta))
      }
    }
  }

  for (seed <- 1 to 20) {
    test(s"colorfulDegHeur output is a fair clique or empty (seed $seed)") {
      val g = GraphGen.randomLocal(30, 0.3, seed + 100)
      for (k <- 1 to 3; delta <- 1 to 2) {
        val r = Heuristics.colorfulDegHeur(g, k, delta)
        if (r.nonEmpty) assert(FairClique.isFairClique(g, r.toSeq, k, delta))
      }
    }
  }

  for (seed <- 1 to 15) {
    test(s"heurRFC result is fair and below the optimum (seed $seed)") {
      val g = GraphGen.randomLocal(25, 0.35, seed + 200)
      for (k <- 1 to 2; delta <- 1 to 2) {
        val h = Heuristics.heurRFC(g, k, delta)
        val opt = NaiveRef.maxFairCliqueSize(g, k, delta)
        assert(h.clique.length <= opt)
        if (h.clique.nonEmpty) assert(FairClique.isFairClique(g, h.clique.toSeq, k, delta))
      }
    }
  }

  test("heurRFC takes the better of its two greedy procedures") {
    for (seed <- 1 to 10) {
      val g = GraphGen.randomLocal(30, 0.3, seed + 300)
      val k = 2; val delta = 2
      val h = Heuristics.heurRFC(g, k, delta)
      val d = Heuristics.degHeur(g, k, delta)
      assert(h.clique.length >= d.length)
    }
  }

  test("heuristics find a planted dominant clique") {
    val (g, _) = GraphGen.randomLocalWithClique(70, 0.03, GraphGen.Planted(14, 7), 4)
    val h = Heuristics.heurRFC(g, 5, 2)
    // the planted clique towers over the background; the greedy descent
    // from the max-degree vertex should land in it
    assert(h.clique.length >= 10, s"got ${h.clique.length}")
  }

  test("heuristics on the empty and trivial graphs") {
    val empty = LocalGraph.fromEdges(Seq.empty, Map.empty)
    assert(Heuristics.degHeur(empty, 1, 1).isEmpty)
    assert(Heuristics.heurRFC(empty, 1, 1).clique.isEmpty)
    val single = LocalGraph.fromEdges(Seq.empty, Map(1L -> 0))
    assert(Heuristics.degHeur(single, 1, 1).isEmpty)
  }

  test("degHeur on a perfectly balanced clique returns the whole clique") {
    val s = 6
    val edges = for (i <- 1 to 2 * s; j <- (i + 1) to 2 * s) yield (i.toLong, j.toLong)
    val attrs = (1 to 2 * s).map(i => i.toLong -> (if (i % 2 == 0) 0 else 1)).toMap
    val g = LocalGraph.fromEdges(edges, attrs)
    val r = Heuristics.degHeur(g, k = 3, delta = 1)
    assert(r.length == 2 * s)
  }

  test("heuristic runtime is near-linear (sanity, no hang) on 30k edges") {
    val (g, _) = GraphGen.randomLocalWithClique(1500, 0.02, GraphGen.Planted(16, 8), 6)
    val t0 = System.nanoTime()
    val h = Heuristics.heurRFC(g, 4, 2)
    val ms = (System.nanoTime() - t0) / 1e6
    assert(ms < 30000, s"took $ms ms")
    assert(h.clique.nonEmpty)
  }
}
