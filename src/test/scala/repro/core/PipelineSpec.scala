package repro.core

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

import repro.SparkSpec
import repro.graph.{AttributedGraph, LocalGraph}
import repro.synth.GraphGen

import java.util.concurrent.atomic.AtomicInteger

/** End-to-end pipeline: distributed reductions + root-parallel search. */
class PipelineSpec extends SparkSpec {

  for (seed <- 1 to 5) {
    test(s"pipeline equals the naive reference end-to-end (seed $seed)") {
      val lg = GraphGen.randomLocal(60, 0.12, seed)
      val ag = AttributedGraph.fromLocal(spark, lg)
      for (k <- 2 to 3) {
        val delta = 2
        val expected = NaiveRef.maxFairCliqueSize(lg, k, delta)
        val res = Pipeline.run(spark, ag, k, delta,
          Pipeline.Config(Bounds.BoundConfig(ad = true), useHeuristic = true))
        assert(res.size == expected, s"k=$k: got ${res.size} want $expected")
        if (expected > 0) {
          val idx = res.cliqueIds.map(id => lg.ids.indexOf(id))
          assert(FairClique.isFairClique(lg, idx.toSeq, k, delta))
        }
      }
    }
  }

  test("pipeline with planted clique recovers it through all reductions") {
    val g = GraphGen.generate(spark, 600, 3500,
      Seq(GraphGen.Planted(12, 6), GraphGen.Planted(8, 4)), seed = 5)
    val lg = g.toLocal
    val k = 4; val delta = 2
    val expected = NaiveRef.maxFairCliqueSize(lg, k, delta)
    assert(expected >= 12)
    val res = Pipeline.run(spark, g, k, delta,
      Pipeline.Config(Bounds.BoundConfig(ad = true, colorfulDegeneracy = true),
        useHeuristic = true))
    assert(res.size == expected)
  }

  test("driver-side and distributed component search agree") {
    // the planted 14-clique (10 a, 4 b) holds 252 tied optima at k = 2, δ = 1
    val planted = GraphGen.randomLocalWithClique(250, 0.08, GraphGen.Planted(14, 10), 1)._1
    for ((lg, delta, size) <- Seq((GraphGen.randomLocal(80, 0.08, 11), 2, 0), (planted, 1, 9))) {
      val ag = AttributedGraph.fromLocal(spark, lg)
      val base = Pipeline.Config(Bounds.BoundConfig(ad = true))
      val dist = Pipeline.run(spark, ag, 2, delta, base.copy(distributedSearch = true))
      val local = Pipeline.run(spark, ag, 2, delta, base.copy(distributedSearch = false))
      assert(dist.size == size)
      assert(dist.cliqueIds.toSeq == local.cliqueIds.toSeq)
    }
  }

  test("one-thread searchReduced reports the counters of Search.maxRFC") {
    val k = 2
    var nodes = 0L
    var pruned = 0L
    val bounded = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true)
    for (seed <- 1 to 3) {
      val lg = GraphGen.randomLocal(250, 0.2, seed + 2000)
      for (delta <- 1 to 2; cfg <- Seq(Bounds.BoundConfig.none, bounded); heur <- Seq(false, true)) {
        val config = Pipeline.Config(cfg, useHeuristic = heur, distributedSearch = false)
        val res = Pipeline.searchReduced(spark, lg, k, delta, config)
        val start = if (heur) Heuristics.heurRFC(lg, k, delta).clique else Array.empty[Int]
        val want = Search.maxRFC(lg, k, delta, cfg, start, egoSeed = heur)
        assert(res.cliqueIds.toSeq == want.clique.map(lg.ids).sorted.toSeq)
        assert(res.nodes == want.nodes)
        assert(res.prunedByBound == want.prunedByBound)
        assert(res.heuristicSize == want.seedSize)
        assert(!res.truncated)
        nodes += res.nodes
        pruned += res.prunedByBound
      }
    }
    assert(nodes > 0 && pruned > 0)
  }

  test("pipeline without heuristic still finds the optimum") {
    val lg = GraphGen.randomLocal(50, 0.15, 21)
    val ag = AttributedGraph.fromLocal(spark, lg)
    val expected = NaiveRef.maxFairCliqueSize(lg, 2, 1)
    val res = Pipeline.run(spark, ag, 2, 1, Pipeline.Config())
    assert(res.size == expected)
  }

  test("pipeline reports reduction statistics and heuristic size") {
    val g = GraphGen.generate(spark, 500, 3000, Seq(GraphGen.Planted(10, 5)), seed = 8)
    val res = Pipeline.run(spark, g, 3, 2,
      Pipeline.Config(Bounds.BoundConfig(ad = true), useHeuristic = true))
    assert(res.reductionStats.length == 3)
    assert(res.heuristicSize <= res.size)
    assert(res.reducedEdges <= g.numEdges)
  }

  test("pipeline on a graph with no fair clique returns empty") {
    val lg = GraphGen.randomLocal(30, 0.05, 31)
    val ag = AttributedGraph.fromLocal(spark, lg)
    val res = Pipeline.run(spark, ag, 8, 1, Pipeline.Config())
    assert(res.size == 0)
    assert(res.cliqueIds.isEmpty)
  }

  /** A small generated graph with materialized inputs, as a caller would
    * pass them.
    */
  private def smallInput(): AttributedGraph = {
    val g = GraphGen.generate(spark, 300, 1500, Seq(GraphGen.Planted(10, 5)), seed = 41)
    AttributedGraph(g.vertices.localCheckpoint(true), g.edges.localCheckpoint(true))
  }

  /** Spark jobs started while `body` runs. */
  private def jobsDuring[T](body: => T): (T, Int) = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(listener)
    try {
      val out = body
      ListenerBusDrain(sc)
      (out, jobs.get())
    } finally sc.removeSparkListener(listener)
  }

  test("pipeline equals the all-DataFrame cascade followed by the search") {
    val g = smallInput()
    val k = 3; val delta = 2
    val config = Pipeline.Config(Bounds.BoundConfig(ad = true), useHeuristic = true)
    val res = Pipeline.run(spark, g, k, delta, config)
    val (reduced, stats) = Reductions.cascade(spark, g, k, localEdgeLimit = 0)
    val ref = Pipeline.searchReduced(spark, reduced, k, delta, config, stats)
    assert(res.cliqueIds.toSeq == ref.cliqueIds.toSeq)
    assert(res.reductionStats == ref.reductionStats)
    assert(res.reducedVertices == ref.reducedVertices)
    assert(res.reducedEdges == ref.reducedEdges)
    assert(res.size >= 10)
  }

  test("pipeline on a small graph launches only the input collects") {
    val g = smallInput()
    val config = Pipeline.Config(Bounds.BoundConfig(ad = true), useHeuristic = true)
    val (res, jobs) = jobsDuring(Pipeline.run(spark, g, 3, 2, config))
    assert(res.size >= 10)
    assert(jobs == 1, s"$jobs Spark jobs")
  }

  test("searchReduced starts no Spark job") {
    val g = smallInput()
    val (reduced, _) = Reductions.cascade(spark, g, 3)
    for (distributed <- Seq(true, false)) {
      val config = Pipeline.Config(Bounds.BoundConfig(ad = true), useHeuristic = true,
        distributedSearch = distributed)
      val (res, jobs) = jobsDuring(Pipeline.searchReduced(spark, reduced, 3, 2, config))
      assert(res.size >= 10)
      assert(jobs == 0, s"distributedSearch=$distributed: $jobs Spark jobs")
    }
  }

  private def graphOf(vertices: Seq[(Long, Int)], edges: Seq[(Long, Long)]): AttributedGraph = {
    import spark.implicits._
    AttributedGraph(vertices.toDF("id", "attr"), edges.toDF("src", "dst"))
  }

  private def rejects(input: AttributedGraph, expected: String): Unit = {
    val e = intercept[IllegalArgumentException](Pipeline.run(spark, input, 1, 1))
    assert(e.getMessage.contains(expected), e.getMessage)
  }

  test("pipeline rejects an edge endpoint without a vertex row") {
    rejects(graphOf(Seq(1L -> 0, 2L -> 1), Seq((1L, 2L), (2L, 3L))),
      "edge (2, 3) has an endpoint without a vertex row")
  }

  test("pipeline rejects an attribute outside {0,1}") {
    rejects(graphOf(Seq(1L -> 0, 2L -> 2), Seq((1L, 2L))),
      "vertex 2 has attribute 2; attributes must be 0 or 1")
  }

  test("pipeline rejects a duplicate vertex id") {
    rejects(graphOf(Seq(1L -> 0, 2L -> 1, 2L -> 0), Seq((1L, 2L))), "duplicate vertex id 2")
  }

  test("pipeline rejects a null vertex id") {
    import spark.implicits._
    rejects(AttributedGraph(Seq((Some(1L), 0), (None, 1)).toDF("id", "attr"),
      Seq((1L, 2L)).toDF("src", "dst")), "vertices column 'id' holds a null")
  }

  test("pipeline rejects a null attribute") {
    import spark.implicits._
    rejects(AttributedGraph(Seq((1L, Some(0)), (2L, None)).toDF("id", "attr"),
      Seq((1L, 2L)).toDF("src", "dst")), "vertices column 'attr' holds a null")
  }

  test("pipeline rejects a null edge endpoint") {
    import spark.implicits._
    val vs = Seq(1L -> 0, 2L -> 1).toDF("id", "attr")
    rejects(AttributedGraph(vs, Seq((Option.empty[Long], 2L)).toDF("src", "dst")),
      "edges column 'src' holds a null")
    rejects(AttributedGraph(vs, Seq((1L, Option.empty[Long])).toDF("src", "dst")),
      "edges column 'dst' holds a null")
  }

  test("pipeline rejects a vertex id column that is not long") {
    import spark.implicits._
    rejects(AttributedGraph(Seq(1 -> 0, 2 -> 1).toDF("id", "attr"),
      Seq((1L, 2L)).toDF("src", "dst")), "vertices column 'id' must be long, got integer")
  }

  test("pipeline rejects an attribute column that is not int") {
    import spark.implicits._
    rejects(AttributedGraph(Seq(1L -> 0L, 2L -> 1L).toDF("id", "attr"),
      Seq((1L, 2L)).toDF("src", "dst")), "vertices column 'attr' must be integer, got long")
  }

  test("pipeline rejects an edge endpoint column that is not long") {
    import spark.implicits._
    val vs = Seq(1L -> 0, 2L -> 1).toDF("id", "attr")
    rejects(AttributedGraph(vs, Seq((1, 2L)).toDF("src", "dst")),
      "edges column 'src' must be long, got integer")
    rejects(AttributedGraph(vs, Seq((1L, "2")).toDF("src", "dst")),
      "edges column 'dst' must be long, got string")
  }

  private def rejectsParams(k: Int, delta: Int, expected: String): Unit = {
    val g = graphOf(Seq(1L -> 0, 2L -> 1), Seq((1L, 2L)))
    val lg = LocalGraph.fromEdges(Seq((1L, 2L)), Map(1L -> 0, 2L -> 1))
    val e1 = intercept[IllegalArgumentException](Pipeline.run(spark, g, k, delta))
    assert(e1.getMessage.contains(expected), e1.getMessage)
    val e2 = intercept[IllegalArgumentException](
      Pipeline.searchReduced(spark, lg, k, delta, Pipeline.Config()))
    assert(e2.getMessage.contains(expected), e2.getMessage)
  }

  test("pipeline and searchReduced reject k < 1") {
    rejectsParams(0, 1, "k must be at least 1, got 0")
  }

  test("pipeline and searchReduced reject delta < 0") {
    rejectsParams(1, -1, "delta must be non-negative, got -1")
  }
}
