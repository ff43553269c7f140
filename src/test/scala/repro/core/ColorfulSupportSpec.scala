package repro.core

import org.apache.spark.sql.DataFrame

import repro.{Oracle, SparkSpec}
import repro.graph.{AttributedGraph, Coloring, LocalGraph}
import repro.synth.GraphGen

/** Colorful and enhanced colorful edge supports (Definitions 6–7). */
class ColorfulSupportSpec extends SparkSpec {

  private def colored(seed: Int, n: Int = 35, p: Double = 0.18):
      (LocalGraph, Array[Int], AttributedGraph, DataFrame) = {
    import spark.implicits._
    val lg = GraphGen.randomLocal(n, p, seed)
    val colors = Coloring.greedyLocal(lg)
    val ag = AttributedGraph.fromLocal(spark, lg)
    val cdf = (0 until lg.n).map(i => (lg.ids(i), colors(i))).toDF("id", "color")
    (lg, colors, ag, cdf)
  }

  test("targets implement the Lemma 3 threshold table") {
    val k = 5
    assert(ColorfulSupport.targets(0, 0, k) == (3, 5))
    assert(ColorfulSupport.targets(1, 1, k) == (5, 3))
    assert(ColorfulSupport.targets(0, 1, k) == (4, 4))
    assert(ColorfulSupport.targets(1, 0, k) == (4, 4))
  }

  test("enhancedSup reproduces the paper's Fig 2 / Example 3 numbers") {
    // k = 4, edge with both endpoints attribute a: targets (2, 4);
    // groups: c_a = 1 (blue), c_b = 2 (dark green, grey), c_m = 2 (red, yellow)
    val (sA, sB) = ColorfulSupport.enhancedSup(cA = 1, cB = 2, cM = 2, tA = 2, tB = 4)
    assert(sA == 2 && sB == 3)
  }

  test("enhancedSup greedy equals the feasibility closed form") {
    for (cA <- 0 to 5; cB <- 0 to 5; cM <- 0 to 5; tA <- 0 to 6; tB <- 0 to 6) {
      val (sA, sB) = ColorfulSupport.enhancedSup(cA, cB, cM, tA, tB)
      val greedyOk = sA >= tA && sB >= tB
      val feasible = cA + cM >= tA && cB + cM >= tB && cA + cB + cM >= tA + tB
      assert(greedyOk == feasible, s"($cA,$cB,$cM,$tA,$tB)")
    }
  }

  test("the Fig 2 common-neighbourhood yields sup (3,4) and groups (1,2,2)") {
    // u=1, v=2 (both attribute a) with seven common neighbours:
    // a-attributed w3(blue) w4(red) w5(yellow); b-attributed w6(darkgreen)
    // w7(grey) w8(red) w9(yellow). Colors supplied explicitly.
    val ids = (1L to 9L)
    val attrs = Map(1L -> 0, 2L -> 0, 3L -> 0, 4L -> 0, 5L -> 0,
      6L -> 1, 7L -> 1, 8L -> 1, 9L -> 1)
    val edges = Seq((1L, 2L)) ++ (3L to 9L).flatMap(w => Seq((1L, w), (2L, w)))
    val g = LocalGraph.fromEdges(edges, attrs)
    // colors: blue=0 red=1 yellow=2 darkgreen=3 grey=4; u,v colored 5, 6
    val colorOf = Map(1L -> 5, 2L -> 6, 3L -> 0, 4L -> 1, 5L -> 2,
      6L -> 3, 7L -> 4, 8L -> 1, 9L -> 2)
    val colors = g.ids.map(colorOf)
    val sup = PeelReference.localColorfulSupports(g, colors, (_, _) => true)
    val uv = (g.ids.indexOf(1L), g.ids.indexOf(2L))
    assert(sup(uv) == (3, 4))
    val groups = PeelReference.localEnhancedGroups(g, colors, (_, _) => true)
    assert(groups(uv) == (1, 2, 2))
    // per Example 3 the edge then fails condition (i) of Lemma 4 at k = 4
    assert(LocalReductions.enSupViolated(0, 0, 1, 2, 2, k = 4))
    // but passes the plain Lemma 3 check (sup_a = 3 >= 2, sup_b = 4 >= 4)
    assert(!LocalReductions.supViolated(0, 0, 3, 4, k = 4))
  }

  test("colorful supports match DuckDB distinct-color counts per edge") {
    val (_, _, ag, cdf) = colored(1)
    val sparkDf = ColorfulSupport.colorfulSupports(ag, cdf)
    Oracle.assertEquivalent(
      sparkDf,
      """WITH tri AS (
        |  SELECT e.src, e.dst, s1.y AS w
        |  FROM edges e
        |  JOIN sym s1 ON s1.x = e.src
        |  JOIN sym s2 ON s2.x = e.dst AND s2.y = s1.y
        |), sup AS (
        |  SELECT t.src, t.dst,
        |         COUNT(DISTINCT CASE WHEN v.attr = '0' THEN c.color END) AS supa,
        |         COUNT(DISTINCT CASE WHEN v.attr = '1' THEN c.color END) AS supb
        |  FROM tri t JOIN vertices v ON v.id = t.w JOIN colors c ON c.id = t.w
        |  GROUP BY t.src, t.dst
        |)
        |SELECT e.src AS src, e.dst AS dst,
        |       CAST(COALESCE(sup.supa, 0) AS INT) AS supA,
        |       CAST(COALESCE(sup.supb, 0) AS INT) AS supB
        |FROM edges e LEFT JOIN sup ON sup.src = e.src AND sup.dst = e.dst""".stripMargin,
      "edges" -> ag.edges, "sym" -> ag.symmetricEdges,
      "vertices" -> ag.vertices, "colors" -> cdf)
  }

  for (seed <- 1 to 8) {
    test(s"distributed colorful supports equal local (seed $seed)") {
      val (lg, colors, ag, cdf) = colored(seed + 10)
      val dist = ColorfulSupport.colorfulSupports(ag, cdf).collect()
        .map(r => (r.getLong(0), r.getLong(1)) -> (r.getInt(2), r.getInt(3))).toMap
      val local = PeelReference.localColorfulSupports(lg, colors, (_, _) => true)
      assert(dist.size == local.size)
      local.foreach { case ((u, v), s) =>
        val key = (math.min(lg.ids(u), lg.ids(v)), math.max(lg.ids(u), lg.ids(v)))
        assert(dist(key) == s, s"edge $key")
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"distributed enhanced groups equal local (seed $seed)") {
      val (lg, colors, ag, cdf) = colored(seed + 40)
      val dist = ColorfulSupport.enhancedGroups(ag, cdf).collect()
        .map(r => (r.getLong(0), r.getLong(1)) -> (r.getInt(2), r.getInt(3), r.getInt(4))).toMap
      val local = PeelReference.localEnhancedGroups(lg, colors, (_, _) => true)
      assert(dist.size == local.size)
      local.foreach { case ((u, v), s) =>
        val key = (math.min(lg.ids(u), lg.ids(v)), math.max(lg.ids(u), lg.ids(v)))
        assert(dist(key) == s, s"edge $key")
      }
    }
  }

  test("supports of a triangle-free edge are zero") {
    import spark.implicits._
    val vs = Seq((1L, 0), (2L, 1)).toDF("id", "attr")
    val es = Seq((1L, 2L)).toDF("src", "dst")
    val cdf = Seq((1L, 0), (2L, 1)).toDF("id", "color")
    val g = AttributedGraph(vs, es)
    val rows = ColorfulSupport.colorfulSupports(g, cdf).collect()
    assert(rows.length == 1)
    assert(rows(0).getInt(2) == 0 && rows(0).getInt(3) == 0)
  }

  test("enhanced support sum never exceeds the plain support sum") {
    val (lg, colors, _, _) = colored(99)
    val sup = PeelReference.localColorfulSupports(lg, colors, (_, _) => true)
    val grp = PeelReference.localEnhancedGroups(lg, colors, (_, _) => true)
    sup.keys.foreach { e =>
      val (sA, sB) = sup(e)
      val (cA, cB, cM) = grp(e)
      assert(cA + cB + cM <= sA + sB)
      assert(cA + cM == sA, s"dA decomposition broken for $e")
      assert(cB + cM == sB, s"dB decomposition broken for $e")
    }
  }
}
