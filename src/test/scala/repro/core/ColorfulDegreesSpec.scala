package repro.core

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.graph.{AttributedGraph, Coloring, LocalGraph}
import repro.synth.GraphGen

/** Colorful / enhanced colorful degrees and the core-based reductions. */
class ColorfulDegreesSpec extends SparkSpec {

  private def colored(seed: Int, n: Int = 40, p: Double = 0.12):
      (LocalGraph, Array[Int], AttributedGraph, DataFrame) = {
    import spark.implicits._
    val lg = GraphGen.randomLocal(n, p, seed)
    val colors = Coloring.greedyLocal(lg)
    val ag = AttributedGraph.fromLocal(spark, lg)
    val cdf = (0 until lg.n).map(i => (lg.ids(i), colors(i))).toDF("id", "color")
    (lg, colors, ag, cdf)
  }

  test("colorful degrees match DuckDB distinct-color counts") {
    val (_, _, ag, cdf) = colored(1)
    val sparkDf = ColorfulDegrees.colorfulDegrees(ag, cdf)
    Oracle.assertEquivalent(
      sparkDf,
      """WITH nbr AS (
        |  SELECT s.x AS id, v.attr AS nattr, c.color AS ncolor
        |  FROM sym s JOIN vertices v ON v.id = s.y JOIN colors c ON c.id = s.y
        |), agg AS (
        |  SELECT id,
        |         COUNT(DISTINCT CASE WHEN nattr = '0' THEN ncolor END) AS da,
        |         COUNT(DISTINCT CASE WHEN nattr = '1' THEN ncolor END) AS db
        |  FROM nbr GROUP BY id
        |)
        |SELECT v.id AS id,
        |       CAST(COALESCE(agg.da, 0) AS INT) AS dA,
        |       CAST(COALESCE(agg.db, 0) AS INT) AS dB
        |FROM vertices v LEFT JOIN agg ON agg.id = v.id""".stripMargin,
      "vertices" -> ag.vertices, "sym" -> ag.symmetricEdges, "colors" -> cdf)
  }

  for (seed <- 1 to 8) {
    test(s"distributed colorful degrees equal the local computation (seed $seed)") {
      val (lg, colors, ag, cdf) = colored(seed + 10)
      val dist = ColorfulDegrees.colorfulDegrees(ag, cdf)
        .collect().map(r => r.getLong(0) -> (r.getInt(1), r.getInt(2))).toMap
      val (dA, dB) = ColorfulDegrees.localColorfulDegrees(lg, colors, Array.fill(lg.n)(true))
      (0 until lg.n).foreach(i => assert(dist(lg.ids(i)) == ((dA(i), dB(i)))))
    }
  }

  test("edOf closed form equals brute-force optimal mixed assignment") {
    for (cA <- 0 to 6; cB <- 0 to 6; cM <- 0 to 6) {
      val brute = (0 to cM).map(x => math.min(cA + x, cB + cM - x)).max
      assert(ColorfulDegrees.edOf(cA, cB, cM) == brute, s"($cA,$cB,$cM)")
    }
  }

  for (seed <- 1 to 8) {
    test(s"distributed enhanced degrees equal the local computation (seed $seed)") {
      val (lg, colors, ag, cdf) = colored(seed + 30)
      val dist = ColorfulDegrees.enhancedDegrees(ag, cdf)
        .collect().map(r => r.getLong(0) -> r.getInt(4)).toMap
      val local = ColorfulDegrees.localEnhancedDegrees(lg, colors, Array.fill(lg.n)(true))
      (0 until lg.n).foreach(i => assert(dist(lg.ids(i)) == local(i)))
    }
  }

  test("ED is never larger than the plain min colorful degree") {
    val (lg, colors, _, _) = colored(55)
    val (dA, dB) = ColorfulDegrees.localColorfulDegrees(lg, colors, Array.fill(lg.n)(true))
    val ed = ColorfulDegrees.localEnhancedDegrees(lg, colors, Array.fill(lg.n)(true))
    (0 until lg.n).foreach { i =>
      assert(ed(i) <= math.min(dA(i), dB(i)) + math.max(dA(i), dB(i)))
      assert(ed(i) <= math.max(dA(i), dB(i)))
    }
  }

  for (seed <- 1 to 5; threshold <- Seq(1, 2)) {
    test(s"distributed colorfulCore equals local peeling (seed $seed, t=$threshold)") {
      val (lg, colors, ag, cdf) = colored(seed + 70, n = 45, p = 0.15)
      val dist = ColorfulDegrees.colorfulCore(ag, cdf, threshold)
        .vertices.collect().map(_.getLong(0)).toSet
      val local = ColorfulDegrees.localColorfulCoreVertices(lg, colors, threshold)
        .map(lg.ids(_)).toSet
      assert(dist == local)
    }
  }

  for (seed <- 1 to 5; threshold <- Seq(1, 2)) {
    test(s"distributed enColorfulCore equals local peeling (seed $seed, t=$threshold)") {
      val (lg, colors, ag, cdf) = colored(seed + 90, n = 45, p = 0.15)
      val dist = ColorfulDegrees.enColorfulCore(ag, cdf, threshold)
        .vertices.collect().map(_.getLong(0)).toSet
      val local = ColorfulDegrees.localEnColorfulCoreVertices(lg, colors, threshold)
        .map(lg.ids(_)).toSet
      assert(dist == local)
    }
  }

  test("vertex peeling that hits maxIter before its fixpoint throws") {
    import spark.implicits._
    // a path whose inner vertices see one neighbour of each attribute: the
    // colorful core at threshold 1 peels it from both ends, one round per layer
    val attrs = Seq(0, 0, 1, 1, 0, 0, 1, 1).zipWithIndex.map { case (a, i) => (i + 1L) -> a }
    val lg = LocalGraph.fromEdges((1L until 8L).map(i => (i, i + 1)), attrs.toMap)
    val colors = Coloring.greedyLocal(lg)
    val ag = AttributedGraph.fromLocal(spark, lg)
    val cdf = (0 until lg.n).map(i => (lg.ids(i), colors(i))).toDF("id", "color")
    val e = intercept[IllegalStateException](ColorfulDegrees.colorfulCore(ag, cdf, 1, maxIter = 1))
    assert(e.getMessage.contains("did not reach a fixpoint in 1 rounds"))
    assert(ColorfulDegrees.colorfulCore(ag, cdf, 1).numVertices == 0)
  }

  test("enhanced colorful core is contained in the colorful core") {
    val (lg, colors, _, _) = colored(120, n = 50, p = 0.2)
    for (t <- 1 to 3) {
      val cc = ColorfulDegrees.localColorfulCoreVertices(lg, colors, t).toSet
      val ecc = ColorfulDegrees.localEnColorfulCoreVertices(lg, colors, t).toSet
      assert(ecc.subsetOf(cc), s"t=$t")
    }
  }

  for (seed <- 1 to 10; k <- Seq(2, 3)) {
    test(s"Lemma 1/2: fair cliques survive the core reductions (seed $seed, k=$k)") {
      val delta = 2
      val (lg, colors, _, _) = colored(seed + 140, n = 30, p = 0.3)
      val opt = NaiveRef.maxFairClique(lg, k, delta)
      opt.foreach { clique =>
        val cc = ColorfulDegrees.localColorfulCoreVertices(lg, colors, k - 1).toSet
        val ecc = ColorfulDegrees.localEnColorfulCoreVertices(lg, colors, k - 1).toSet
        assert(clique.forall(cc.contains), "colorful core lost a fair clique vertex")
        assert(clique.forall(ecc.contains), "enhanced colorful core lost a fair clique vertex")
      }
    }
  }

  test("colorful core numbers: clique of size 2s has ccore s-ish per side") {
    // balanced clique: every vertex sees s colors on the other attribute
    // and s-1 on its own, so D_min = s-1 and the colorful degeneracy is s-1
    val s = 5
    val edges = for (i <- 1 to 2 * s; j <- (i + 1) to 2 * s) yield (i.toLong, j.toLong)
    val attrs = (1 to 2 * s).map(i => i.toLong -> (if (i <= s) 0 else 1)).toMap
    val g = LocalGraph.fromEdges(edges, attrs)
    val colors = Coloring.greedyLocal(g)
    val ccore = ColorfulDegrees.colorfulCoreNumbers(g, colors)
    assert(ccore.max == s - 1)
  }

  test("colorfulCorePeelOrder is a permutation of the vertices") {
    val (lg, colors, _, _) = colored(200)
    val order = ColorfulDegrees.colorfulCorePeelOrder(lg, colors)
    assert(order.sorted.toSeq == (0 until lg.n))
  }

  test("colorful degeneracy is at most the colorful h-index") {
    for (seed <- 1 to 6) {
      val (lg, colors, _, _) = colored(seed + 300, n = 35, p = 0.2)
      val ccore = ColorfulDegrees.colorfulCoreNumbers(lg, colors)
      val (dA, dB) = ColorfulDegrees.localColorfulDegrees(lg, colors, Array.fill(lg.n)(true))
      val h = LocalGraph.hIndexOf(Array.tabulate(lg.n)(i => math.min(dA(i), dB(i))))
      assert(ccore.max <= h)
    }
  }
}
