package repro.graph

import repro.SparkSpec
import repro.synth.GraphGen

/** Sequential greedy coloring + distributed Jones–Plassmann equivalence. */
class ColoringSpec extends SparkSpec {

  for (seed <- 1 to 15) {
    test(s"greedyLocal produces a proper coloring (seed $seed)") {
      val g = GraphGen.randomLocal(35, 0.15, seed)
      val colors = Coloring.greedyLocal(g)
      assert(Coloring.isProper(g, colors))
      assert(colors.forall(_ >= 0))
    }
  }

  test("greedyLocal is deterministic") {
    val g = GraphGen.randomLocal(30, 0.2, 42)
    assert(Coloring.greedyLocal(g).toSeq == Coloring.greedyLocal(g).toSeq)
  }

  test("greedyLocal colors a clique with exactly its size") {
    val s = 6
    val edges = for (i <- 1 to s; j <- (i + 1) to s) yield (i.toLong, j.toLong)
    val g = LocalGraph.fromEdges(edges, (1 to s).map(_.toLong -> 0).toMap)
    assert(Coloring.numColors(Coloring.greedyLocal(g)) == s)
  }

  test("greedyLocal colors a star with 2 colors, hub first") {
    val edges = (2 to 8).map(i => (1L, i.toLong))
    val g = LocalGraph.fromEdges(edges, (1 to 8).map(_.toLong -> 0).toMap)
    val colors = Coloring.greedyLocal(g)
    assert(Coloring.numColors(colors) == 2)
    assert(colors(0) == 0) // hub has max degree, colored first
  }

  // the greedy coloring by a stable (degree desc, id asc) tuple sort
  private def tupleSortGreedy(g: LocalGraph): Array[Int] = {
    val color = Array.fill(g.n)(-1)
    Array.range(0, g.n).sortBy(v => (-g.degree(v), g.ids(v))).foreach { v =>
      val used = g.adj(v).map(color).toSet
      color(v) = Iterator.from(0).find(c => !used.contains(c)).get
    }
    color
  }

  // every vertex of degree 4: i ~ i ± 1, i ± 2 (mod n)
  private def circulant(n: Int): LocalGraph =
    new LocalGraph(Array.tabulate(n)(_.toLong), new Array[Int](n),
      Array.tabulate(n)(i => Seq(1, 2, n - 2, n - 1).map(d => (i + d) % n).distinct.sorted.toArray))

  test("greedyLocal equals the tuple-sort coloring on shuffled, negative, large and equal ids") {
    val rnd = new scala.util.Random(11)
    val graphs = (1 to 12).map(seed => GraphGen.randomLocal(60, 0.1, seed + 70)) ++
      Seq(circulant(40), circulant(41), GraphGen.randomLocal(50, 0.02, 3),
        LocalGraph.fromEdges(Seq.empty, Map(5L -> 0)))
    for ((g, i) <- graphs.zipWithIndex) {
      // negative, small and above Int.MaxValue, shuffled over the vertices
      val pool = Array.tabulate(g.n) { v =>
        if (v % 3 == 0) -1L - v * 1000003L
        else if (v % 3 == 1) Int.MaxValue.toLong + v * 999983L
        else v.toLong
      }
      if (g.n > 2) { pool(0) = Long.MinValue; pool(1) = Long.MaxValue }
      for (ids <- Seq(g.ids, rnd.shuffle(pool.toSeq).toArray, pool.reverse, Array.fill(g.n)(7L))) {
        val h = new LocalGraph(ids, g.attr, g.adj)
        assert(Coloring.greedyLocal(h).toSeq == tupleSortGreedy(h).toSeq,
          s"graph $i ids ${ids.take(5).mkString(",")}")
      }
    }
  }

  test("numColors of empty coloring is 0") {
    assert(Coloring.numColors(Array.empty[Int]) == 0)
  }

  for (seed <- 1 to 4) {
    test(s"distributed Jones–Plassmann equals sequential greedy (seed $seed)") {
      val lg = GraphGen.randomLocal(40, 0.12, seed + 50)
      val ag = AttributedGraph.fromLocal(spark, lg)
      val distributed = Coloring.greedyDistributed(spark, ag)
        .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      val sequential = Coloring.greedyLocal(lg)
      (0 until lg.n).foreach { i =>
        assert(distributed(lg.ids(i)) == sequential(i),
          s"vertex ${lg.ids(i)}: dist=${distributed(lg.ids(i))} seq=${sequential(i)}")
      }
    }
  }

  test("distributed coloring handles isolated vertices") {
    val lg = LocalGraph.fromEdges(Seq((1L, 2L)), Map(1L -> 0, 2L -> 1, 3L -> 0))
    val ag = AttributedGraph.fromLocal(spark, lg)
    val colored = Coloring.greedyDistributed(spark, ag)
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(colored.keySet == Set(1L, 2L, 3L))
    assert(colored(1L) != colored(2L))
    assert(colored(3L) == 0)
  }
}
