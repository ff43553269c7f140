package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.LocalGraph
import repro.synth.GraphGen

/** The ego seed pass of `Search.maxRFC`: its cliques are fair cliques of
  * the graph, and with it on the search returns one clique at every
  * parallelism, of the reference optimum's size, visiting at most the
  * reference's nodes at parallelism 1.
  */
class SearchEgoSeedSpec extends AnyFunSuite {
  import SearchKernelSpec.{disjointUnion, graph, graphs, seeds}

  private val pipelineBounds = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true)

  /** Checks one case and returns (nodes with the pass, reference nodes). */
  private def check(g: LocalGraph, k: Int, delta: Int, cfg: Bounds.BoundConfig,
                    start: Array[Int], label: String): (Long, Long) = {
    val ego = Search.egoClique(g, k, delta)
    assert(ego.isEmpty || (g.isClique(ego.toSeq) &&
      FairClique.isFairClique(g, ego.toSeq, k, delta)), s"$label: ego clique")
    val want = SearchReference.maxRFC(g, k, delta, cfg, start)
    val runs = Seq(1, 2, 4).map(p =>
      Search.maxRFC(g, k, delta, cfg, start, parallelism = p, egoSeed = true))
    val one = runs.head
    for ((got, p) <- runs.zip(Seq(1, 2, 4))) {
      assert(got.clique.toSeq == one.clique.toSeq, s"$label parallelism=$p: clique")
      assert(!got.truncated, s"$label parallelism=$p")
    }
    assert(one.size == want.size, s"$label: size")
    assert(one.size == 0 || FairClique.isFairClique(g, one.clique.toSeq, k, delta), label)
    assert(one.nodes <= want.nodes, s"$label: nodes")
    assert(one.seedSize >= start.length && one.seedSize <= one.size, s"$label: seedSize")
    if (g.connectedComponents.length == 1)
      assert(one.seedSize == math.max(start.length, ego.length), s"$label: seedSize")
    (one.nodes, want.nodes)
  }

  for (n <- graphs; (name, cfg) <- Seq("none" -> Bounds.BoundConfig.none,
                                       "ub_AD+ub_cd" -> pipelineBounds)) {
    test(s"ego-seeded search returns one reference-size clique (n=$n, $name)") {
      var seeded = 0L
      var reference = 0L
      for (seed <- seeds) {
        val g = graph(n, seed)
        // δ = 0 is where the alternation can overshoot the cap by one
        for (k <- 1 to 3; delta <- 0 to 3) {
          // odd seeds also start from the HeurRFC clique, as the pipeline does
          val start =
            if (seed % 2 == 1) Heuristics.heurRFC(g, k, delta).clique else Array.empty[Int]
          val (s, r) = check(g, k, delta, cfg, start, s"seed=$seed k=$k d=$delta")
          seeded += s
          reference += r
        }
      }
      assert(seeded < reference, s"the pass saved no node: $seeded vs $reference")
    }
  }

  test("ego-seeded search over several components") {
    var multi = 0
    for (seed <- seeds.take(10)) {
      val g = disjointUnion(Seq(graph("120", seed), graph("250+K80", seed),
        GraphGen.randomLocalWithClique(100, 0.05, GraphGen.Planted(12, 6), seed)._1,
        graph("30", seed)))
      if (g.connectedComponents.count(_.length >= 6) > 1) multi += 1
      for (k <- 1 to 3; delta <- 0 to 2; cfg <- Seq(Bounds.BoundConfig.none, pipelineBounds)) {
        val start =
          if (seed % 2 == 1) Heuristics.heurRFC(g, k, delta).clique else Array.empty[Int]
        check(g, k, delta, cfg, start, s"seed=$seed k=$k d=$delta bounds=${cfg.any}")
      }
    }
    assert(multi == 10)
  }

  test("tied optima: 50 ego-seeded parallel runs return the one-thread clique") {
    for (seed <- 1 to 2; start <- Seq(false, true)) {
      // the unbalanced planted 14-clique of SearchParallelSpec: 252 tied optima
      val g = GraphGen.randomLocalWithClique(250, 0.08, GraphGen.Planted(14, 10), seed)._1
      val init = if (start) Heuristics.heurRFC(g, 2, 1).clique else Array.empty[Int]
      val label = s"seed=$seed start=$start"
      check(g, 2, 1, Bounds.BoundConfig.none, init, label)
      val one = Search.maxRFC(g, 2, 1, initialBest = init, egoSeed = true)
      assert(one.size == 9, label)
      for (run <- 1 to 50) {
        val got = Search.maxRFC(g, 2, 1, initialBest = init, parallelism = 4, egoSeed = true)
        assert(got.clique.toSeq == one.clique.toSeq, s"$label run=$run")
      }
    }
  }
}
