package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.LocalGraph
import repro.synth.GraphGen

import java.util.concurrent.{Callable, Executors, TimeUnit}

/** The root-parallel search returns the clique of the one-thread reference
  * loop (`SearchReference.maxRFC`) whatever the thread timing; at
  * parallelism 1 it also visits the same number of nodes.
  */
class SearchParallelSpec extends AnyFunSuite {
  import SearchKernelSpec.{graph, graphs, seeds}

  for (n <- graphs;
       (name, cfg) <- ("none" -> Bounds.BoundConfig.none) +: Bounds.BoundConfig.table2) {
    test(s"parallel search returns the reference clique (n=$n, $name)") {
      for (seed <- seeds) {
        val g = graph(n, seed)
        for (k <- 1 to 3; delta <- 1 to 3) {
          // odd seeds start from the HeurRFC clique, as the pipeline does
          val start =
            if (seed % 2 == 1) Heuristics.heurRFC(g, k, delta).clique else Array.empty[Int]
          val want = SearchReference.maxRFC(g, k, delta, cfg, start)
          for (p <- Seq(1, 2, 4)) {
            val label = s"seed=$seed k=$k d=$delta best=${start.length} parallelism=$p"
            val got = Search.maxRFC(g, k, delta, cfg, start, parallelism = p)
            assert(got.clique.toSeq == want.clique.toSeq, s"$label: clique")
            assert(!got.truncated, label)
            if (p == 1) {
              assert(got.nodes == want.nodes, s"$label: nodes")
              assert(got.prunedByBound == want.prunedByBound, s"$label: prunedByBound")
            }
          }
        }
      }
    }
  }

  // an unbalanced planted 14-clique (10 a, 4 b): at k = 2, δ = 1 its 4 b
  // with any 5 of its 10 a are 252 tied optima, spread over several roots
  private def tied(seed: Int): LocalGraph =
    GraphGen.randomLocalWithClique(250, 0.08, GraphGen.Planted(14, 10), seed)._1

  private def sameCliqueEveryRun(g: LocalGraph, k: Int, delta: Int, init: Array[Int],
                                 label: String): Search.Result = {
    val want = SearchReference.maxRFC(g, k, delta, Bounds.BoundConfig.none, init)
    for (run <- 1 to 50) {
      val got = Search.maxRFC(g, k, delta, initialBest = init, parallelism = 4)
      assert(got.clique.toSeq == want.clique.toSeq, s"$label run=$run")
    }
    want
  }

  test("tied optima: 50 parallel runs return the reference clique every time") {
    for (seed <- 1 to 2; start <- Seq(false, true)) {
      val g = tied(seed)
      val init = if (start) Heuristics.heurRFC(g, 2, 1).clique else Array.empty[Int]
      assert(sameCliqueEveryRun(g, 2, 1, init, s"planted seed=$seed start=$start").size == 9)
    }
    // many tied optima of size 7 across roots that workers reach at nearly
    // the same time: without the tie rule, later roots win about half the runs
    val g = GraphGen.randomLocal(200, 0.3, 7003)
    for (k <- 1 to 2; delta <- 1 to 2)
      sameCliqueEveryRun(g, k, delta, Array.empty, s"G(200, 0.3) k=$k d=$delta")
  }

  test("two concurrent callers both get the reference clique") {
    val cases = Seq(tied(3), graph("250+K80", 5))
    val want = cases.map(g => SearchReference.maxRFC(g, 2, 1, Bounds.BoundConfig.none,
      Array.empty))
    val callers = Executors.newFixedThreadPool(2)
    try {
      val runs = cases.map { g =>
        callers.submit(new Callable[Seq[Search.Result]] {
          def call(): Seq[Search.Result] =
            (1 to 10).map(_ => Search.maxRFC(g, 2, 1, parallelism = 4))
        })
      }
      for (((run, w), i) <- runs.zip(want).zipWithIndex; got <- run.get(5, TimeUnit.MINUTES))
        assert(got.clique.toSeq == w.clique.toSeq, s"caller $i")
    } finally callers.shutdownNow()
  }

  test("a truncated parallel search returns a fair clique flagged truncated") {
    for (seed <- seeds.take(10)) {
      val g = graph("250", seed)
      val limit = 200L
      val res = Search.maxRFC(g, 1, 1, nodeLimit = limit, parallelism = 4)
      assert(res.truncated, s"seed=$seed")
      assert(res.nodes > limit, s"seed=$seed")
      assert(res.size > 0 && FairClique.isFairClique(g, res.clique.toSeq, 1, 1), s"seed=$seed")
      assert(res.size <= Search.maxRFC(g, 1, 1).size)
    }
  }

  test("parallelism below 1 is rejected") {
    val e = intercept[IllegalArgumentException](
      Search.maxRFC(graph("30", 1), 1, 1, parallelism = 0))
    assert(e.getMessage.contains("parallelism must be at least 1, got 0"))
  }
}
