package repro.graph

import org.scalatest.funsuite.AnyFunSuite

import repro.core.PeelReference
import repro.synth.GraphGen

import scala.util.Random

/** Unit + property tests for the compact local graph substrate. */
class LocalGraphSpec extends AnyFunSuite {

  private def triangleWithTail: LocalGraph =
    LocalGraph.fromEdges(
      Seq((1L, 2L), (2L, 3L), (1L, 3L), (3L, 4L)),
      Map(1L -> 0, 2L -> 1, 3L -> 0, 4L -> 1))

  test("fromEdges builds sorted adjacency and dense indices") {
    val g = triangleWithTail
    assert(g.n == 4)
    assert(g.m == 4)
    assert(g.ids.toSeq == Seq(1L, 2L, 3L, 4L))
    assert(g.attr.toSeq == Seq(0, 1, 0, 1))
    assert(g.adj(2).toSeq == Seq(0, 1, 3))
  }

  test("fromEdges drops self loops and merges duplicate edges") {
    val g = LocalGraph.fromEdges(
      Seq((1L, 2L), (2L, 1L), (1L, 1L), (1L, 2L)),
      Map(1L -> 0, 2L -> 1))
    assert(g.n == 2)
    assert(g.m == 1)
  }

  test("fromEdges keeps isolated vertices present in the attribute map") {
    val g = LocalGraph.fromEdges(Seq((1L, 2L)), Map(1L -> 0, 2L -> 1, 9L -> 0))
    assert(g.n == 3)
    assert(g.degree(2) == 0)
  }

  test("hasEdge is symmetric and correct") {
    val g = triangleWithTail
    assert(g.hasEdge(0, 1) && g.hasEdge(1, 0))
    assert(!g.hasEdge(0, 3) && !g.hasEdge(3, 0))
  }

  test("intersectNeighbors computes sorted common neighbourhood") {
    val g = triangleWithTail
    assert(g.intersectNeighbors(0, g.adj(1)).toSeq == Seq(2))
    assert(g.intersectNeighbors(3, g.adj(0)).toSeq == Seq(2))
  }

  test("edgeList lists every undirected edge exactly once") {
    val g = triangleWithTail
    assert(g.edgeList.toSet == Set((0, 1), (0, 2), (1, 2), (2, 3)))
  }

  test("inducedSubgraph keeps edges among kept vertices and remaps ids") {
    val g = triangleWithTail
    val s = g.inducedSubgraph(Array(0, 2, 3))
    assert(s.n == 3)
    assert(s.ids.toSeq == Seq(1L, 3L, 4L))
    assert(s.m == 2) // (1,3) and (3,4)
  }

  test("inducedSubgraph rejects a keep list that repeats a vertex") {
    intercept[IllegalArgumentException](triangleWithTail.inducedSubgraph(Array(2, 0, 2)))
  }

  test("inducedSubgraph through a scratch position map builds the same graph") {
    val g = GraphGen.randomLocal(60, 0.2, 7)
    val pos = Array.fill(g.n)(-1)
    val rnd = new Random(7)
    for (_ <- 1 to 20) {
      val keep = rnd.shuffle((0 until g.n).toList).take(1 + rnd.nextInt(g.n)).sorted.toArray
      val want = g.inducedSubgraph(keep)
      val got = g.inducedSubgraph(keep, pos)
      assert(got.ids.toSeq == want.ids.toSeq && got.attr.toSeq == want.attr.toSeq)
      assert(got.adj.map(_.toSeq).toSeq == want.adj.map(_.toSeq).toSeq)
      assert(pos.forall(_ == -1))
    }
  }

  test("withoutEdges removes undirected edges both ways") {
    val g = triangleWithTail
    val s = PeelReference.withoutEdges(g, Set((0, 2), (2, 3)))
    assert(s.m == 2)
    assert(!s.hasEdge(0, 2) && !s.hasEdge(2, 0) && !s.hasEdge(2, 3))
  }

  test("isClique on cliques and non-cliques") {
    val g = triangleWithTail
    assert(g.isClique(Seq(0, 1, 2)))
    assert(!g.isClique(Seq(0, 1, 3)))
    assert(g.isClique(Seq(2)))
    assert(g.isClique(Seq.empty[Int]))
  }

  // reference implementations for the property tests
  private def refKCore(g: LocalGraph, k: Int): Set[Int] = {
    var alive = (0 until g.n).toSet
    var changed = true
    while (changed) {
      val bad = alive.filter(v => g.adj(v).count(alive) < k)
      changed = bad.nonEmpty
      alive = alive -- bad
    }
    alive
  }

  private def refCoreNumbers(g: LocalGraph): Array[Int] =
    Array.tabulate(g.n)(v => (0 to g.n).filter(k => refKCore(g, k).contains(v)).max)

  for (seed <- 1 to 10) {
    test(s"kCoreVertices matches iterative reference (seed $seed)") {
      val g = GraphGen.randomLocal(30, 0.2, seed)
      for (k <- 1 to 5)
        assert(g.kCoreVertices(k).toSet == refKCore(g, k), s"k=$k")
    }
  }

  for (seed <- 1 to 10) {
    test(s"coreNumbers matches per-vertex reference (seed $seed)") {
      val g = GraphGen.randomLocal(25, 0.25, seed + 100)
      assert(g.coreNumbers.toSeq == refCoreNumbers(g).toSeq)
    }
  }

  test("degeneracy of a clique of size s is s-1") {
    val s = 7
    val edges = for (i <- 1 to s; j <- (i + 1) to s) yield (i.toLong, j.toLong)
    val g = LocalGraph.fromEdges(edges, (1 to s).map(_.toLong -> 0).toMap)
    assert(g.degeneracy == s - 1)
    assert(g.hIndex == s - 1)
  }

  test("hIndexOf on known sequences") {
    assert(LocalGraph.hIndexOf(Array(3, 3, 3)) == 3)
    assert(LocalGraph.hIndexOf(Array(5, 1, 1, 1)) == 1)
    assert(LocalGraph.hIndexOf(Array.empty[Int]) == 0)
    assert(LocalGraph.hIndexOf(Array(0, 0)) == 0)
    assert(LocalGraph.hIndexOf(Array(10, 9, 5, 4, 2)) == 4)
  }

  for (seed <- 1 to 8) {
    test(s"connectedComponents partition the vertices (seed $seed)") {
      val g = GraphGen.randomLocal(40, 0.05, seed + 200)
      val comps = g.connectedComponents
      assert(comps.flatten.sorted == (0 until g.n))
      // every edge stays within one component
      val compOf = comps.zipWithIndex.flatMap { case (c, i) => c.map(_ -> i) }.toMap
      g.edgeList.foreach { case (u, v) => assert(compOf(u) == compOf(v)) }
      // no edges between different components is implied; also check
      // each component is internally connected via BFS
      comps.foreach { c =>
        val sub = g.inducedSubgraph(c)
        assert(sub.connectedComponents.size == 1)
      }
    }
  }

  test("connectedComponents lists interleaved components by smallest vertex, each ascending") {
    // components {0, 3, 6, 9}, {1, 7}, {4, 8} interleave; 2 and 5 are isolated
    val edges = Seq((0, 6), (6, 3), (9, 3), (7, 1), (4, 8))
    val g = new LocalGraph(Array.tabulate(10)(_.toLong), new Array[Int](10),
      Array.tabulate(10)(v => edges.collect {
        case (a, b) if a == v => b
        case (a, b) if b == v => a
      }.sorted.toArray))
    assert(g.connectedComponents.map(_.toSeq) ==
      Seq(Seq(0, 3, 6, 9), Seq(1, 7), Seq(2), Seq(4, 8), Seq(5)))
    assert(new LocalGraph(Array.empty, Array.empty, Array.empty).connectedComponents.isEmpty)
  }

  private def refMaximalCliques(g: LocalGraph): Set[Set[Int]] = {
    // brute force over all subsets (tiny graphs only)
    val all = (0 until g.n).toSet.subsets().filter(s => s.nonEmpty && g.isClique(s)).toSeq
    all.filter(c => !all.exists(d => c != d && c.subsetOf(d))).map(identity).toSet
  }

  for (seed <- 1 to 12) {
    test(s"maximalCliques matches brute force (seed $seed)") {
      val g = GraphGen.randomLocal(10, 0.4, seed + 300)
      val got = g.maximalCliques().map(_.toSet).toSet
      assert(got == refMaximalCliques(g))
    }
  }

  test("maximalCliques finds the planted clique") {
    val (g, mem) = GraphGen.randomLocalWithClique(40, 0.05, GraphGen.Planted(8, 4), 7)
    val memIdx = mem.map(id => g.ids.indexOf(id)).toSet
    assert(g.maximalCliques().exists(c => memIdx.subsetOf(c.toSet)))
  }
}
