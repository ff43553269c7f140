package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.LocalGraph

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}

/** The seed `Search.maxRFC` evaluates beside its first peel order: a
  * parallel search returns the clique, seed size and truncation flag of
  * the seed evaluated first and searched on one thread; a failing seed
  * surfaces as itself before any worker starts; and a search whose pool
  * helpers are all busy runs the seed on the calling thread.
  */
class SearchSeedSpec extends AnyFunSuite {
  import SearchKernelSpec.{disjointUnion, graph, graphs, seeds}

  private val pipelineBounds = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true)

  private def heur(g: LocalGraph, k: Int, delta: Int): Array[Int] =
    Heuristics.heurRFC(g, k, delta).clique

  /** Checks the parallel search with a lazy HeurRFC seed against HeurRFC
    * followed by the one-thread search; returns the one-thread result.
    */
  private def sameAsSequentialSeed(g: LocalGraph, k: Int, delta: Int, cfg: Bounds.BoundConfig,
                                   egoSeed: Boolean, label: String): Search.Result = {
    val seed = heur(g, k, delta)
    val want = Search.maxRFC(g, k, delta, cfg, seed, parallelism = 1, egoSeed = egoSeed)
    for (p <- Seq(2, 4)) {
      val got = Search.maxRFC(g, k, delta, cfg, heur(g, k, delta), parallelism = p,
        egoSeed = egoSeed)
      assert(got.clique.toSeq == want.clique.toSeq, s"$label parallelism=$p: clique")
      assert(got.seedSize == want.seedSize, s"$label parallelism=$p: seedSize")
      assert(got.truncated == want.truncated, s"$label parallelism=$p: truncated")
    }
    want
  }

  for (n <- graphs) {
    test(s"a parallel search with a lazy seed matches the sequential seed (n=$n)") {
      for (seed <- seeds.take(10); k <- 1 to 3; delta <- 1 to 3; egoSeed <- Seq(false, true))
        sameAsSequentialSeed(graph(n, seed), k, delta, pipelineBounds, egoSeed,
          s"seed=$seed k=$k d=$delta ego=$egoSeed")
    }
  }

  /** The complete graph on `attrs.length` vertices with those attributes. */
  private def complete(attrs: Seq[Int]): LocalGraph = {
    val n = attrs.length
    new LocalGraph(Array.tabulate(n)(_.toLong), attrs.toArray,
      Array.tabulate(n)(v => (0 until n).filter(_ != v).toArray))
  }

  test("a first component the seed makes too small is not searched") {
    // a 7-clique (4 a, 3 b) first, then a balanced 12-clique: HeurRFC
    // finds the 12-clique, which leaves neither component large enough,
    // although the first one's peel order is built before the seed is in
    val g = disjointUnion(Seq(complete(Seq(0, 0, 0, 0, 1, 1, 1)),
      complete(Seq.fill(6)(0) ++ Seq.fill(6)(1))))
    val (k, delta) = (2, 1)
    assert(heur(g, k, delta).length == 12)
    for (egoSeed <- Seq(false, true); p <- Seq(1, 2, 4)) {
      val label = s"ego=$egoSeed parallelism=$p"
      quiescentPool()
      val before = Search.pool.getTaskCount
      val res = Search.maxRFC(g, k, delta, initialBest = heur(g, k, delta), parallelism = p,
        egoSeed = egoSeed)
      assert(res.size == 12 && res.seedSize == 12, label)
      assert(res.nodes == 0, s"$label: a component was searched")
      // a visited component drops every root at entry, but hands its
      // helpers tasks: the seed task is the only one the pool was given
      quiescentPool()
      assert(Search.pool.getTaskCount - before == (if (p == 1) 0 else 1),
        s"$label: a component was visited")
      // without a seed both components are searched
      assert(Search.maxRFC(g, k, delta, parallelism = p).nodes > 0, label)
    }
    sameAsSequentialSeed(g, k, delta, pipelineBounds, egoSeed = true, "two cliques")
  }

  /** Waits until no pool helper runs or waits for a task. */
  private def quiescentPool(): Unit = {
    val deadline = System.nanoTime() + TimeUnit.SECONDS.toNanos(30)
    var calm = 0
    while (calm < 3) {
      assert(System.nanoTime() < deadline, "pool helpers stayed busy")
      if (Search.pool.getActiveCount == 0 && Search.pool.getQueue.isEmpty) calm += 1
      else calm = 0
      Thread.sleep(5)
    }
  }

  test("a failing seed surfaces unwrapped, starts no worker, and the next search runs") {
    val g = graph("250+K80", 1)
    quiescentPool()
    val before = Search.pool.getTaskCount
    val e = intercept[IllegalStateException](
      Search.maxRFC(g, 2, 1, initialBest = throw new IllegalStateException("seed failed"),
        parallelism = 4))
    assert(e.getMessage == "seed failed")
    quiescentPool()
    // the seed task is the only one the pool was given
    assert(Search.pool.getTaskCount - before == 1)
    val want = SearchReference.maxRFC(g, 2, 1, Bounds.BoundConfig.none, heur(g, 2, 1))
    val got = Search.maxRFC(g, 2, 1, initialBest = heur(g, 2, 1), parallelism = 4)
    assert(got.clique.toSeq == want.clique.toSeq)
  }

  test("with every pool helper busy, the caller runs the seed and the search finishes") {
    val g = graph("250", 3)
    val (k, delta) = (2, 1)
    val want = sameAsSequentialSeed(g, k, delta, pipelineBounds, egoSeed = true, "idle pool")
    val helpers = Search.pool.getMaximumPoolSize
    val started = new CountDownLatch(helpers)
    val release = new CountDownLatch(1)
    val caller = Executors.newSingleThreadExecutor()
    try {
      for (_ <- 1 to helpers) Search.pool.execute(() => { started.countDown(); release.await() })
      assert(started.await(30, TimeUnit.SECONDS), "the pool did not start every helper")
      val run = caller.submit(new Callable[(Search.Result, Boolean)] {
        def call(): (Search.Result, Boolean) = {
          var seededOn: Thread = null
          val res = Search.maxRFC(g, k, delta, pipelineBounds,
            { seededOn = Thread.currentThread; heur(g, k, delta) }, parallelism = 4,
            egoSeed = true)
          (res, seededOn == Thread.currentThread)
        }
      })
      val (res, onCaller) = run.get(60, TimeUnit.SECONDS)
      assert(onCaller, "the seed did not run on the calling thread")
      assert(res.clique.toSeq == want.clique.toSeq)
      assert(res.seedSize == want.seedSize && !res.truncated)
    } finally {
      release.countDown()
      caller.shutdownNow()
    }
  }

  test("at parallelism 1 the seed runs on the calling thread") {
    val g = graph("120", 2)
    var seededOn: Thread = null
    Search.maxRFC(g, 2, 1, initialBest = { seededOn = Thread.currentThread; heur(g, 2, 1) })
    assert(seededOn == Thread.currentThread)
  }
}
