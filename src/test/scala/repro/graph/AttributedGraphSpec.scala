package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.synth.GraphGen

import scala.util.Random

/** `AttributedGraph.toLocal`, the one-job collect of both sides, against
  * `LocalGraph.fromEdges` of the rows collected one by one.
  */
class AttributedGraphSpec extends SparkSpec {

  private def reference(g: AttributedGraph): LocalGraph = {
    val attrs = g.vertices.select("id", "attr").collect()
      .map(r => r.getLong(0) -> r.getInt(1)).toMap
    val edges = g.edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1)))
    LocalGraph.fromEdges(edges.toSeq, attrs)
  }

  private def assertSame(got: LocalGraph, want: LocalGraph): Unit = {
    assert(got.ids.toSeq == want.ids.toSeq)
    assert(got.attr.toSeq == want.attr.toSeq)
    assert(got.adj.map(_.toSeq).toSeq == want.adj.map(_.toSeq).toSeq)
  }

  private def graphOf(vertices: Seq[(Long, Int)], edges: Seq[(Long, Long)]): AttributedGraph = {
    import spark.implicits._
    AttributedGraph(vertices.toDF("id", "attr"), edges.toDF("src", "dst"))
  }

  /** A random graph on `ids` with both edge directions, repeats and
    * self-loops among its rows.
    */
  private def randomGraph(ids: Seq[Long], p: Double, seed: Int): AttributedGraph = {
    val rnd = new Random(seed)
    val edges = for {
      u <- ids
      v <- ids
      if u <= v && rnd.nextDouble() < p
      e <- Seq.fill(1 + rnd.nextInt(2))(if (rnd.nextBoolean()) (u, v) else (v, u))
    } yield e
    graphOf(ids.map(id => id -> rnd.nextInt(2)), rnd.shuffle(edges))
  }

  for (vParts <- 1 to 8; eParts <- Seq(1, 3, 8)) {
    test(s"toLocal equals fromEdges over $vParts vertex and $eParts edge partitions") {
      val g = randomGraph((1L to 60L).map(_ * 7), 0.15, vParts * 10 + eParts)
      val split = AttributedGraph(g.vertices.repartition(vParts), g.edges.repartition(eParts))
      assertSame(split.toLocal, reference(g))
    }
  }

  test("toLocal round-trips negative ids and ids near Long.MinValue and Long.MaxValue") {
    val ids = Seq(Long.MinValue, Long.MinValue + 1, -(1L << 40), -3L, 0L, 2L, 1L << 35,
      Long.MaxValue - 1, Long.MaxValue)
    for (seed <- 1 to 4; parts <- Seq(1, 2, 5)) {
      val g = randomGraph(new Random(seed).shuffle(ids), 0.5, seed)
      val split = AttributedGraph(g.vertices.repartition(parts), g.edges.repartition(parts))
      val got = split.toLocal
      assert(got.ids.toSeq == ids)
      assertSame(got, reference(g))
    }
  }

  test("toLocal keeps isolated vertices") {
    val g = graphOf(Seq(5L -> 1, 1L -> 0, 9L -> 1, 3L -> 0), Seq((1L, 3L)))
    val got = g.toLocal
    assertSame(got, reference(g))
    assert(got.n == 4 && got.m == 1)
    assert(got.degree(2) == 0 && got.degree(3) == 0)
  }

  test("toLocal on an empty edge DataFrame") {
    import spark.implicits._
    val g = AttributedGraph(Seq(2L -> 1, 1L -> 0).toDF("id", "attr"),
      Seq.empty[(Long, Long)].toDF("src", "dst").repartition(3))
    val got = g.toLocal
    assertSame(got, reference(g))
    assert(got.ids.toSeq == Seq(1L, 2L) && got.attr.toSeq == Seq(0, 1) && got.m == 0)
  }

  test("toLocal reads its columns by name, reordered or among extra columns") {
    val g = randomGraph((1L to 40L), 0.2, 77)
    val shuffled = AttributedGraph(
      g.vertices.select(lit("x").as("name"), col("attr"), col("id"), (col("id") * 2).as("twice")),
      g.edges.select(col("dst"), lit(1.5).as("weight"), col("src")))
    assertSame(shuffled.toLocal, reference(g))
  }

  test("toLocal equals fromEdges on a generated graph") {
    val g = GraphGen.generate(spark, 500, 3000, Seq(GraphGen.Planted(10, 5)), seed = 3)
    assertSame(g.toLocal, reference(g))
  }

  private def rejects(g: AttributedGraph, expected: String): Unit = {
    val e = intercept[IllegalArgumentException](g.toLocal)
    assert(e.getMessage.contains(expected), e.getMessage)
  }

  test("toLocal rejects a duplicate id in another partition, a bad attribute and a dangling edge") {
    def split(vs: DataFrame, es: DataFrame) = AttributedGraph(vs.repartition(4), es.repartition(4))
    val ok = randomGraph((1L to 30L), 0.2, 5)
    import spark.implicits._
    rejects(split(ok.vertices.union(Seq(17L -> 0).toDF("id", "attr")), ok.edges),
      "duplicate vertex id 17")
    rejects(split(ok.vertices.union(Seq(40L -> -1).toDF("id", "attr")), ok.edges),
      "vertex 40 has attribute -1; attributes must be 0 or 1")
    rejects(split(ok.vertices, ok.edges.union(Seq((Long.MinValue, 3L)).toDF("src", "dst"))),
      s"edge (${Long.MinValue}, 3) has an endpoint without a vertex row")
  }
}
