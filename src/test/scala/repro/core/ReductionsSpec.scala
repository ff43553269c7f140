package repro.core

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.graph.{AttributedGraph, Coloring, LocalGraph}
import repro.synth.GraphGen

/** The ColorfulSup / EnColorfulSup peeling reductions (Lemmas 3–4). */
class ReductionsSpec extends SparkSpec {

  private def colored(seed: Int, n: Int = 35, p: Double = 0.2):
      (LocalGraph, Array[Int], AttributedGraph, DataFrame) = {
    import spark.implicits._
    val lg = GraphGen.randomLocal(n, p, seed)
    val colors = Coloring.greedyLocal(lg)
    val ag = AttributedGraph.fromLocal(spark, lg)
    val cdf = (0 until lg.n).map(i => (lg.ids(i), colors(i))).toDF("id", "color")
    (lg, colors, ag, cdf)
  }

  private def edgeSet(g: AttributedGraph): Set[(Long, Long)] =
    g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private def localEdgeSet(g: LocalGraph): Set[(Long, Long)] =
    g.edgeList.map { case (u, v) =>
      (math.min(g.ids(u), g.ids(v)), math.max(g.ids(u), g.ids(v)))
    }.toSet

  for (seed <- 1 to 10; k <- Seq(2, 3, 4)) {
    test(s"incremental Algorithm 1 equals batch peeling (seed $seed, k=$k)") {
      val (lg, colors, _, _) = colored(seed + 500, n = 40, p = 0.25)
      assert(localEdgeSet(LocalReductions.colorfulSup(lg, colors, k)) ==
        localEdgeSet(PeelReference.colorfulSupBatch(lg, colors, k)))
      assert(localEdgeSet(LocalReductions.enColorfulSup(lg, colors, k)) ==
        localEdgeSet(PeelReference.enColorfulSupBatch(lg, colors, k)))
    }
  }

  /** 70 vertices: a block of 36 with edge probability 0.85 in sparse noise,
    * so peels cascade and edges see many apex colours of both attributes.
    */
  private def denseBlock(seed: Int): (LocalGraph, Array[Int]) = {
    val rnd = new scala.util.Random(seed)
    val attrs = (1L to 70L).map(_ -> rnd.nextInt(2)).toMap
    val edges = for {
      u <- 1 to 70
      v <- u + 1 to 70
      if rnd.nextDouble() < (if (v <= 36) 0.85 else 0.08)
    } yield (u.toLong, v.toLong)
    val lg = LocalGraph.fromEdges(edges, attrs)
    (lg, Coloring.greedyLocal(lg))
  }

  for (seed <- 1 to 6; k <- 2 to 6) {
    test(s"incremental Algorithm 1 equals batch peeling on a dense block (seed $seed, k=$k)") {
      val (lg, colors) = denseBlock(seed)
      val sup = LocalReductions.colorfulSup(lg, colors, k)
      val en = LocalReductions.enColorfulSup(lg, colors, k)
      assert(localEdgeSet(sup) == localEdgeSet(PeelReference.colorfulSupBatch(lg, colors, k)))
      assert(localEdgeSet(en) == localEdgeSet(PeelReference.enColorfulSupBatch(lg, colors, k)))
      assert(sup.m < lg.m && en.m > 0, s"peeled ${lg.m} to ${sup.m} and ${en.m} edges")
    }
  }

  for (seed <- 1 to 6; k <- Seq(2, 3)) {
    test(s"distributed ColorfulSup equals local peeling (seed $seed, k=$k)") {
      val (lg, colors, ag, cdf) = colored(seed)
      val dist = Reductions.colorfulSupReduce(ag, cdf, k)
      val local = LocalReductions.colorfulSup(lg, colors, k)
      assert(edgeSet(dist) == localEdgeSet(local))
    }
  }

  for (seed <- 1 to 6; k <- Seq(2, 3)) {
    test(s"distributed EnColorfulSup equals local peeling (seed $seed, k=$k)") {
      val (lg, colors, ag, cdf) = colored(seed + 20)
      val dist = Reductions.enColorfulSupReduce(ag, cdf, k)
      val local = LocalReductions.enColorfulSup(lg, colors, k)
      assert(edgeSet(dist) == localEdgeSet(local))
    }
  }

  for (seed <- 1 to 6; k <- Seq(2, 3)) {
    test(s"ColorfulSup fixpoint satisfies all Lemma 3 conditions (seed $seed, k=$k)") {
      val (lg, colors, _, _) = colored(seed + 40)
      val red = LocalReductions.colorfulSup(lg, colors, k)
      val sup = PeelReference.localColorfulSupports(red, colors, (_, _) => true)
      sup.foreach { case ((u, v), (sA, sB)) =>
        assert(!LocalReductions.supViolated(red.attr(u), red.attr(v), sA, sB, k))
      }
    }
  }

  for (seed <- 1 to 6; k <- Seq(2, 3)) {
    test(s"EnColorfulSup fixpoint satisfies all Lemma 4 conditions (seed $seed, k=$k)") {
      val (lg, colors, _, _) = colored(seed + 60)
      val red = LocalReductions.enColorfulSup(lg, colors, k)
      val grp = PeelReference.localEnhancedGroups(red, colors, (_, _) => true)
      grp.foreach { case ((u, v), (cA, cB, cM)) =>
        assert(!LocalReductions.enSupViolated(red.attr(u), red.attr(v), cA, cB, cM, k))
      }
    }
  }

  for (seed <- 1 to 12; k <- Seq(2, 3)) {
    test(s"safety: every maximum fair clique survives both reductions (seed $seed, k=$k)") {
      val delta = 2
      val (lg, colors, _, _) = colored(seed + 80, n = 28, p = 0.35)
      NaiveRef.maxFairClique(lg, k, delta).foreach { clique =>
        val r1 = LocalReductions.colorfulSup(lg, colors, k)
        assert(r1.isClique(clique.toSeq), "ColorfulSup broke the optimum clique")
        val r2 = LocalReductions.enColorfulSup(lg, colors, k)
        assert(r2.isClique(clique.toSeq), "EnColorfulSup broke the optimum clique")
      }
    }
  }

  for (seed <- 1 to 6) {
    test(s"EnColorfulSup removes at least as many edges as ColorfulSup (seed $seed)") {
      val (lg, colors, _, _) = colored(seed + 200, n = 40, p = 0.25)
      for (k <- 2 to 4) {
        val sup = localEdgeSet(LocalReductions.colorfulSup(lg, colors, k))
        val en = localEdgeSet(LocalReductions.enColorfulSup(lg, colors, k))
        assert(en.subsetOf(sup), s"k=$k")
      }
    }
  }

  for (seed <- 1 to 6) {
    test(s"reduction strength is monotone in k (seed $seed)") {
      val (lg, colors, _, _) = colored(seed + 300, n = 40, p = 0.25)
      val sizes = (2 to 5).map(k => LocalReductions.colorfulSup(lg, colors, k).m)
      assert(sizes == sizes.sorted.reverse, s"not monotone: $sizes")
    }
  }

  test("a planted balanced clique survives reduction at its supporting k") {
    val (lg, mem) = GraphGen.randomLocalWithClique(60, 0.04, GraphGen.Planted(12, 6), 5)
    val colors = Coloring.greedyLocal(lg)
    val k = 5
    val red = LocalReductions.enColorfulSup(lg, colors, k)
    val idx = mem.map(id => lg.ids.indexOf(id))
    assert(red.isClique(idx.toSeq))
  }

  test("edge peeling that hits maxIter before its fixpoint throws") {
    val (lg, colors, ag, cdf) = colored(7)
    val k = 3
    val local = LocalReductions.colorfulSup(lg, colors, k)
    // the peel removes edges, so a second round is needed to confirm the fixpoint
    assert(local.m < lg.m)
    val e = intercept[IllegalStateException](Reductions.colorfulSupReduce(ag, cdf, k, maxIter = 1))
    assert(e.getMessage.contains("did not reach a fixpoint in 1 rounds"))
    assert(edgeSet(Reductions.colorfulSupReduce(ag, cdf, k)) == localEdgeSet(local))
  }

  test("cascade runs all three stages and reports shrinking stats") {
    val g = GraphGen.generate(spark, 400, 2500,
      Seq(GraphGen.Planted(10, 5)), seed = 77)
    val (reduced, stats) = Reductions.cascade(spark, g, k = 3)
    assert(stats.map(_.stage) ==
      Seq("EnColorfulCore", "ColorfulSup", "EnColorfulSup"))
    assert(stats.head.edges >= stats(1).edges)
    assert(stats(1).edges >= stats(2).edges)
    assert(reduced.m == stats(2).edges)
    // the coloring covers every original vertex
    assert(Coloring.greedyLocal(g.toLocal).length == 400)
    // the planted clique (size 10, split 5/5) survives k=3 reduction
    val best = NaiveRef.maxFairCliqueSize(reduced, 3, 2)
    assert(best >= 9, s"best=$best") // 5/5 clique allows 5+5 at delta=2
  }

  for (seed <- 1 to 4; k <- Seq(2, 3)) {
    test(s"local cascade equals distributed cascade (seed $seed, k=$k)") {
      val (lg, colors, ag, _) = colored(seed + 400, n = 45, p = 0.22)
      val (loc, locStats) = LocalReductions.cascade(lg, colors, k)
      // All stages distributed, all on the driver, and every switch point
      // in between: limit = a stage's edge count switches to the driver
      // right after the first stage that brings the graph down to it
      // (after EnColorfulCore whenever that stage removes an edge).
      val switchPoints = locStats.map(_.edges).distinct.filter(_ < lg.m)
      assert(switchPoints.nonEmpty, "the cascade removes nothing: no switch point to test")
      for (limit <- Seq(0L, Long.MaxValue) ++ switchPoints) {
        val (red, stats) = Reductions.cascade(spark, ag, k, localEdgeLimit = limit)
        assert(localEdgeSet(red) == localEdgeSet(loc), s"limit $limit")
        assert(stats == locStats, s"limit $limit")
      }
    }
  }
}
