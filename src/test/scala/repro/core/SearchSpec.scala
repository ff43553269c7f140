package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.LocalGraph
import repro.synth.GraphGen

/** Branch-and-bound search vs the independent naive reference. */
class SearchSpec extends AnyFunSuite {

  private def checkOptimal(g: LocalGraph, k: Int, delta: Int,
                           cfg: Bounds.BoundConfig, label: String): Unit = {
    val expected = NaiveRef.maxFairCliqueSize(g, k, delta)
    val res = Search.maxRFC(g, k, delta, cfg)
    assert(res.size == expected, s"$label: got ${res.size} want $expected")
    if (expected > 0)
      assert(FairClique.isFairClique(g, res.clique.toSeq, k, delta),
        s"$label: returned set is not a fair clique")
  }

  for (seed <- 1 to 25) {
    test(s"maxRFC equals naive reference, no bounds (seed $seed)") {
      val g = GraphGen.randomLocal(20, 0.4, seed)
      for (k <- 1 to 3; delta <- 1 to 3)
        checkOptimal(g, k, delta, Bounds.BoundConfig.none, s"k=$k d=$delta")
    }
  }

  for ((name, cfg) <- Bounds.BoundConfig.table2; seed <- 1 to 8) {
    test(s"maxRFC equals naive reference with $name (seed $seed)") {
      val g = GraphGen.randomLocal(20, 0.4, seed + 50)
      for (k <- 2 to 3; delta <- 1 to 2)
        checkOptimal(g, k, delta, cfg, s"$name k=$k d=$delta")
    }
  }

  for (seed <- 1 to 8) {
    test(s"maxRFC on sparse disconnected graphs (seed $seed)") {
      val g = GraphGen.randomLocal(40, 0.08, seed + 100)
      for (k <- 1 to 2; delta <- 1 to 2)
        checkOptimal(g, k, delta, Bounds.BoundConfig(ad = true), s"k=$k d=$delta")
    }
  }

  test("maxRFC recovers a planted balanced clique exactly") {
    val (g, mem) = GraphGen.randomLocalWithClique(60, 0.05, GraphGen.Planted(12, 6), 9)
    val res = Search.maxRFC(g, k = 5, delta = 1,
      Bounds.BoundConfig(ad = true, colorfulDegeneracy = true))
    assert(res.size >= 12, s"got ${res.size}")
    assert(res.size == NaiveRef.maxFairCliqueSize(g, 5, 1))
  }

  test("maxRFC finds the fair sub-clique of an unfair larger clique") {
    // 10 a-vertices + 3 b-vertices, fully connected: the maximum clique is
    // unfair at delta=1, the optimum fair clique is a strict subset (4+3)
    val s = 13
    val edges = for (i <- 1 to s; j <- (i + 1) to s) yield (i.toLong, j.toLong)
    val attrs = (1 to s).map(i => i.toLong -> (if (i <= 10) 0 else 1)).toMap
    val g = LocalGraph.fromEdges(edges, attrs)
    val res = Search.maxRFC(g, k = 3, delta = 1)
    assert(res.size == 7)
    val (a, b) = FairClique.counts(g, res.clique.toSeq)
    assert(a == 4 && b == 3)
  }

  test("maxRFC returns empty when no fair clique exists") {
    val g = GraphGen.randomLocal(15, 0.1, 3)
    val res = Search.maxRFC(g, k = 6, delta = 1)
    assert(res.size == 0)
    assert(NaiveRef.maxFairCliqueSize(g, 6, 1) == 0)
  }

  test("initialBest seeding never changes the answer") {
    for (seed <- 1 to 10) {
      val g = GraphGen.randomLocal(22, 0.4, seed + 200)
      val k = 2; val delta = 2
      val plain = Search.maxRFC(g, k, delta)
      if (plain.size > 0) {
        val seeded = Search.maxRFC(g, k, delta,
          initialBest = plain.clique)
        assert(seeded.size == plain.size)
        assert(seeded.nodes <= plain.nodes, "seeding should not expand the search")
      }
    }
  }

  test("bound pruning reduces visited nodes on a reducible instance") {
    val (g, _) = GraphGen.randomLocalWithClique(80, 0.06, GraphGen.Planted(14, 7), 10)
    val noB = Search.maxRFC(g, 4, 2)
    val withB = Search.maxRFC(g, 4, 2,
      Bounds.BoundConfig(ad = true, colorfulPath = true))
    assert(withB.size == noB.size)
    assert(withB.nodes <= noB.nodes)
  }

  // ------------------------------------------------ paper-literal variant

  for (seed <- 1 to 15) {
    test(s"alternating Branch is sound: fair and never above optimum (seed $seed)") {
      val g = GraphGen.randomLocal(18, 0.45, seed + 300)
      for (k <- 1 to 2; delta <- 1 to 2) {
        val alt = SearchReference.alternatingMaxRFC(g, k, delta)
        val opt = NaiveRef.maxFairCliqueSize(g, k, delta)
        assert(alt.size <= opt, s"k=$k d=$delta alt=${alt.size} opt=$opt")
        if (alt.size > 0)
          assert(FairClique.isFairClique(g, alt.clique.toSeq, k, delta))
      }
    }
  }

  test("alternating Branch usually matches the optimum on easy instances") {
    var matches = 0; var total = 0
    for (seed <- 1 to 20) {
      val g = GraphGen.randomLocal(16, 0.5, seed + 400)
      val opt = NaiveRef.maxFairCliqueSize(g, 2, 2)
      if (opt > 0) {
        total += 1
        if (SearchReference.alternatingMaxRFC(g, 2, 2).size == opt) matches += 1
      }
    }
    assert(total > 5)
    assert(matches * 2 >= total, s"alternating matched only $matches/$total")
  }
}
