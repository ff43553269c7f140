package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.{Coloring, LocalGraph}
import repro.synth.GraphGen

/** Soundness of every upper bound against the exact optimum. */
class BoundsSpec extends AnyFunSuite {

  private def balancedClique(s: Int): LocalGraph = {
    val edges = for (i <- 1 to 2 * s; j <- (i + 1) to 2 * s) yield (i.toLong, j.toLong)
    val attrs = (1 to 2 * s).map(i => i.toLong -> (if (i <= s) 0 else 1)).toMap
    LocalGraph.fromEdges(edges, attrs)
  }

  test("ubA on balanced and imbalanced counts") {
    assert(Bounds.ubA(5, 5, 2) == 10)
    assert(Bounds.ubA(8, 3, 2) == 8) // 2*3+2
    assert(Bounds.ubA(3, 8, 2) == 8)
    assert(Bounds.ubA(6, 4, 2) == 10) // boundary |diff| == delta
  }

  test("ubAC mirrors ubA on color counts") {
    assert(Bounds.ubAC(4, 4, 1) == 8)
    assert(Bounds.ubAC(9, 2, 1) == 5)
  }

  test("ubEAC is sound where the paper's printed formula is not") {
    // c_a=10, c_b=1, c_m=2, delta=1: a 7-vertex fair clique is achievable
    // (b side: 1+2 colors, a side: 3+1), the printed bound said 5
    assert(Bounds.ubEAC(10, 1, 2, 1) >= 7)
    assert(Bounds.ubEAC(10, 1, 2, 1) == 7) // 2*(1+2)+1
    assert(Bounds.ubEAC(3, 3, 0, 5) == 6) // total cap
  }

  test("ubEAC brute force: LP optimum never exceeds the closed form") {
    for (cA <- 0 to 5; cB <- 0 to 5; cM <- 0 to 4; delta <- 0 to 3) {
      // brute force the best x+y with x<=cA+mA, y<=cB+mB, mA+mB<=cM, |x-y|<=delta
      var best = 0
      for (mA <- 0 to cM; x <- 0 to cA + mA; y <- 0 to cB + (cM - mA))
        if (math.abs(x - y) <= delta) best = math.max(best, x + y)
      assert(best <= Bounds.ubEAC(cA, cB, cM, delta), s"($cA,$cB,$cM,$delta)")
    }
  }

  test("degeneracy/h-index bounds are exactly tight on a balanced clique") {
    val g = balancedClique(4) // 8-clique
    assert(Bounds.ubDegeneracy(g) == 8)
    assert(Bounds.ubHIndex(g) == 8)
  }

  test("colorful degeneracy/h-index bounds cover a balanced clique") {
    val g = balancedClique(4)
    val colors = Coloring.greedyLocal(g)
    val delta = 1
    // optimum fair clique is the whole 8-clique: bounds must be >= 8
    assert(Bounds.ubColorfulDegeneracy(g, colors, delta) >= 8)
    assert(Bounds.ubColorfulHIndex(g, colors, delta) >= 8)
  }

  test("colorful path of a clique equals the clique size") {
    val g = balancedClique(5)
    val colors = Coloring.greedyLocal(g)
    assert(Bounds.ubColorfulPath(g, colors) == 10)
  }

  test("colorful path DP equals brute-force longest colorful path") {
    for (seed <- 1 to 10) {
      val g = GraphGen.randomLocal(12, 0.3, seed)
      val colors = Coloring.greedyLocal(g)
      // brute force: DFS over the DAG induced by (color, id) order
      val order = (0 until g.n).sortBy(v => (colors(v), g.ids(v)))
      val pos = new Array[Int](g.n)
      order.zipWithIndex.foreach { case (v, i) => pos(v) = i }
      def dfs(v: Int): Int =
        1 + g.adj(v).filter(w => pos(w) > pos(v)).map(dfs).maxOption.getOrElse(0)
      val brute = (0 until g.n).map(dfs).maxOption.getOrElse(0)
      assert(Bounds.ubColorfulPath(g, colors) == brute, s"seed $seed")
    }
  }

  // soundness sweep: every configured bound dominates the exact optimum
  private val allConfigs = Seq(
    "ad" -> Bounds.BoundConfig(ad = true),
    "deg" -> Bounds.BoundConfig(degeneracy = true),
    "h" -> Bounds.BoundConfig(hIndex = true),
    "cd" -> Bounds.BoundConfig(colorfulDegeneracy = true),
    "ch" -> Bounds.BoundConfig(colorfulHIndex = true),
    "cp" -> Bounds.BoundConfig(colorfulPath = true))

  for (seed <- 1 to 15; (nm, cfg) <- allConfigs) {
    test(s"bound $nm dominates the exact optimum (seed $seed)") {
      val g = GraphGen.randomLocal(22, 0.4, seed + 500)
      for (k <- 1 to 3; delta <- 1 to 3) {
        val opt = NaiveRef.maxFairCliqueSize(g, k, delta)
        if (opt > 0) {
          val ub = Bounds.evaluate(g, delta, cfg)
          assert(ub >= opt, s"k=$k delta=$delta opt=$opt ub=$ub config=$nm")
        }
      }
    }
  }

  test("evaluate with a floor decides the same prune as the full minimum") {
    var early = 0
    for (seed <- 1 to 12; pA <- Seq(0.2, 0.5, 0.8)) {
      val g = GraphGen.randomLocal(16 + 2 * seed, 0.35, seed + 900, pA)
      for ((nm, cfg) <- Bounds.BoundConfig.table2 ++ allConfigs; delta <- 0 to 3) {
        val full = Bounds.evaluate(g, delta, cfg)
        for (floor <- Int.MinValue +: (-1 to g.n + delta + 2)) {
          val got = Bounds.evaluate(g, delta, cfg, floor)
          val label = s"seed=$seed pA=$pA $nm delta=$delta floor=$floor full=$full got=$got"
          assert((got <= floor) == (full <= floor), label)
          assert(got >= full, label)
          if (full > floor) assert(got == full, label)
          if (got != full) early += 1
        }
      }
    }
    assert(early > 0, "no evaluation stopped before the minimum")
  }

  test("evaluate with no bounds enabled returns MaxValue") {
    val g = GraphGen.randomLocal(10, 0.3, 1)
    assert(Bounds.evaluate(g, 1, Bounds.BoundConfig.none) == Int.MaxValue)
  }

  test("evaluate on the empty graph returns 0") {
    val g = LocalGraph.fromEdges(Seq.empty, Map.empty)
    assert(Bounds.evaluate(g, 1, Bounds.BoundConfig(ad = true)) == 0)
  }

  test("table2 lists the paper's six configurations") {
    val names = Bounds.BoundConfig.table2.map(_._1)
    assert(names == Seq("ub_AD", "ub_AD+ub_deg", "ub_AD+ub_h",
      "ub_AD+ub_cd", "ub_AD+ub_ch", "ub_AD+ub_cp"))
    assert(Bounds.BoundConfig.table2.forall(_._2.ad))
  }
}
