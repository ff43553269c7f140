package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.graph.{Coloring, LocalGraph}
import repro.synth.GraphGen

import scala.util.Random

/** The bitset component search visits the same tree as the list-based
  * reference kernel (`SearchReference`): same node count, same bound
  * prunes, same truncation and the same clique, vertex for vertex.
  */
class SearchKernelSpec extends AnyFunSuite {
  import SearchKernelSpec._

  private def sameTree(g: LocalGraph, k: Int, delta: Int, cfg: Bounds.BoundConfig,
                       globalBest: Int, nodeLimit: Long, label: String): Search.Result = {
    val want = SearchReference.searchComponent(g, k, delta, cfg, globalBest, nodeLimit)
    val got = Search.searchComponent(g, k, delta, cfg, globalBest, nodeLimit)
    assert(got.nodes == want.nodes, s"$label: nodes")
    assert(got.prunedByBound == want.prunedByBound, s"$label: prunedByBound")
    assert(got.truncated == want.truncated, s"$label: truncated")
    assert(got.clique.toSeq == want.clique.toSeq, s"$label: clique")
    want
  }

  for (n <- graphs;
       (name, cfg) <- ("none" -> Bounds.BoundConfig.none) +: Bounds.BoundConfig.table2) {
    test(s"bitset search visits the reference tree (n=$n, $name)") {
      var bounded = 0L
      for (seed <- seeds) {
        val g = graph(n, seed)
        for (k <- 1 to 3; delta <- 1 to 3) {
          // odd seeds start from the HeurRFC incumbent, as the pipeline does
          val start = if (seed % 2 == 1) Heuristics.heurRFC(g, k, delta).clique.length else 0
          bounded += sameTree(g, k, delta, cfg, start, Long.MaxValue,
            s"seed=$seed k=$k d=$delta best=$start").prunedByBound
        }
      }
      // the larger random graphs have roots with >= 32 candidates, where
      // bounds run; the planted clique outgrows every bound
      if ((n == "120" || n == "250") && cfg.any) assert(bounded > 0, "no bound ever pruned")
    }
  }

  test("a root that ub_a alone prunes before its instance is built visits the reference tree") {
    var decided = 0
    var bounded = 0L
    for (seed <- 1 to 4) {
      // a b-hub joined to 40 a-vertices and one b-vertex of a dense graph:
      // peeled first (D_min 1), it keeps 41 later neighbours, and their
      // attribute counts give ub_a = 2·2 + δ
      val base = GraphGen.randomLocal(90, 0.4, seed + 4000)
      val rnd = new Random(seed)
      val hub = base.n + 1L
      def pick(attr: Int, cnt: Int): Seq[Long] =
        rnd.shuffle((0 until base.n).filter(base.attr(_) == attr)).take(cnt).map(base.ids)
      val edges = base.edgeList.map { case (u, v) => (base.ids(u), base.ids(v)) } ++
        (pick(0, 40) ++ pick(1, 1)).map(hub -> _)
      val g = LocalGraph.fromEdges(edges, base.ids.zip(base.attr).toMap + (hub -> 1))
      val po = new Search.PeelOrder(g)
      for (k <- 1 to 3; delta <- 0 to 2) {
        decided += (0 until g.n).count { r =>
          val d = po.later(r).length
          val cntA = (r +: po.later(r)).count(po.attr(_) == 0)
          d >= 32 && 1 + d >= 2 * k && Bounds.ubA(cntA, 1 + d - cntA, delta) < 2 * k
        }
        for ((name, cfg) <- Bounds.BoundConfig.table2)
          bounded += sameTree(g, k, delta, cfg, 0, Long.MaxValue,
            s"seed=$seed k=$k d=$delta $name").prunedByBound
      }
    }
    assert(decided > 0, "ub_a never decided a root")
    assert(bounded > 0, "no bound ever pruned")
  }

  test("bitset search truncates at the same node as the reference") {
    var cut = 0
    for (n <- graphs; seed <- seeds.take(10); k <- 1 to 2) {
      val g = graph(n, seed)
      val full = SearchReference.searchComponent(g, k, 2, Bounds.BoundConfig.none, 0)
      if (full.nodes > 2) {
        val res = sameTree(g, k, 2, Bounds.BoundConfig.none, 0, full.nodes / 2,
          s"n=$n seed=$seed k=$k")
        assert(res.truncated)
        cut += 1
      }
    }
    assert(cut >= 40)
  }

  test("bucket-queue colorful core decomposition equals the minBy scan") {
    for (n <- graphs; seed <- seeds) {
      val g = graph(n, seed)
      // the greedy coloring, and a random improper one with repeated colors
      val rnd = new Random(seed)
      for (colors <- Seq(Coloring.greedyLocal(g), Array.fill(g.n)(rnd.nextInt(6)))) {
        val (core, order) = ColorfulDegrees.colorfulCoreDecomposition(g, colors)
        val (refCore, refOrder) = SearchReference.colorfulCoreDecomposition(g, colors)
        assert(core.toSeq == refCore.toSeq, s"n=$n seed=$seed: core numbers")
        assert(order.toSeq == refOrder.toSeq, s"n=$n seed=$seed: peel order")
      }
    }
  }

  test("root bound instances read from later-neighbour lists equal inducedSubgraph") {
    for (n <- graphs; seed <- seeds.take(10)) {
      val g = graph(n, seed)
      val po = new Search.PeelOrder(g)
      val pos = Array.fill(g.n)(-1)
      for (r <- 0 until g.n) {
        val want = g.inducedSubgraph(po.peel(r) +: po.later(r).map(po.peel))
        val got = po.instance(r, pos)
        val label = s"n=$n seed=$seed root=$r"
        assert(got.ids.toSeq == want.ids.toSeq && got.attr.toSeq == want.attr.toSeq, label)
        assert(got.adj.map(_.toSeq).toSeq == want.adj.map(_.toSeq).toSeq, label)
        assert(pos.forall(_ == -1), label)
      }
    }
  }

  test("a hub with 50k same-attribute leaves costs one node and no bitset rows") {
    val leaves = 50000
    val g = new LocalGraph(
      Array.tabulate(leaves + 1)(_.toLong),
      new Array[Int](leaves + 1),
      Array.tabulate(leaves + 1)(v => if (v == 0) Array.range(1, leaves + 1) else Array(0)))
    val t0 = System.nanoTime()
    val res = Search.maxRFC(g, k = 2, delta = 1)
    val secs = (System.nanoTime() - t0) / 1e9
    assert(res.size == 0 && !res.truncated)
    assert(res.nodes == 1)
    assert(secs < 1.0, s"took $secs s")
  }
}

/** The seeded graphs the kernel specs share, and their disjoint unions. */
object SearchKernelSpec {

  val seeds: Range = 1 to 40

  // "250+K80" plants a balanced 80-clique in sparse noise, so root candidate
  // sets span two bitset words; the plain random graphs keep below 64
  val graphs: Seq[String] = Seq("30", "120", "250", "250+K80")

  def graph(name: String, seed: Int): LocalGraph = name match {
    case "30" => GraphGen.randomLocal(30, 0.4, seed)
    case "120" => GraphGen.randomLocal(120, 0.25, seed + 1000)
    case "250" => GraphGen.randomLocal(250, 0.2, seed + 2000)
    case "250+K80" =>
      GraphGen.randomLocalWithClique(250, 0.08, GraphGen.Planted(80, 40), seed + 3000)._1
  }

  /** The disjoint union of `parts`, in order, with ids 0 until the total. */
  def disjointUnion(parts: Seq[LocalGraph]): LocalGraph = {
    val offsets = parts.scanLeft(0)(_ + _.n)
    new LocalGraph(
      Array.range(0, offsets.last).map(_.toLong),
      parts.flatMap(_.attr).toArray,
      parts.zip(offsets).flatMap { case (g, o) => g.adj.map(_.map(_ + o)) }.toArray)
  }
}
