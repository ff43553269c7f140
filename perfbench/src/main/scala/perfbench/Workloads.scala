package perfbench

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.graph.{AttributedGraph, Coloring, LocalGraph}
import repro.synth.{GraphGen, LiteDatasets}

/** A set-up workload: the inputs are generated, the reference answers are
  * known, and queries can be issued untraced or traced. Queries are
  * numbered `0 until size`; the closed loop issues them in turn, cycling.
  */
trait Instance {
  /** Realized input size and workload parameters, for the output. */
  def info: Seq[(String, Any)]

  def size: Int

  /** The queries of the untimed warm-up. */
  def warmUp: Seq[Int]

  /** Query `i` through the public entry point, untraced. */
  def query(i: Int): Pipeline.Result

  /** Query `i` replayed layer by layer, with a span per layer call. */
  def tracedQuery(t: Tracer, i: Int): Pipeline.Result

  /** Driver-side replays of the search layers on the reduced graph query
    * `i` searched. They run outside the query and its time.
    */
  def replaySearch(t: Tracer, i: Int): Unit

  /** Why the answer to query `i` is wrong, if it is. */
  def check(i: Int, r: Pipeline.Result): Option[String]
}

/** The benchmark's workloads. Every one uses the configuration of
  * `MaxFairCliqueJob`: bounds ub_AD + ub_cd, HeurRFC seeding, components
  * searched as Spark tasks.
  */
object Workloads {

  val config: Pipeline.Config = Pipeline.Config(
    bounds = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true),
    useHeuristic = true,
    distributedSearch = true)

  /** A dataset analog of [[LiteDatasets]] at `scale` times its vertex and
    * edge counts (planted cliques and dense blocks keep their sizes).
    */
  final case class Input(dataset: String, scale: Double) {
    private def spec = LiteDatasets.spec(dataset)

    def defaultSeed: Long = spec.seed

    /** The analog generated with generator seed `seed`; the spec's own seed
      * gives the spec's graph at this scale.
      */
    def generate(spark: SparkSession, seed: Long): AttributedGraph = {
      val s = spec
      val g = GraphGen.generate(spark, (s.n * scale).round, (s.targetEdges * scale).round,
        s.planted, s.alpha, seed, blocks = s.blocks)
      AttributedGraph(g.vertices.localCheckpoint(true), g.edges.localCheckpoint(true))
    }
  }

  sealed trait Workload {
    def name: String
    def input: Input
    def k: Int
    /** Generates the input and computes the reference answers. */
    def setUp(spark: SparkSession, seed: Long): Instance
  }

  /** `Pipeline.run` end to end on a generated graph at one (k, δ); the
    * workload seed is the generator seed.
    */
  final case class Cascade(name: String, input: Input, k: Int, delta: Int) extends Workload {
    def setUp(spark: SparkSession, seed: Long): Instance =
      new CascadeInstance(spark, input.generate(spark, seed), k, delta)
  }

  /** `Pipeline.searchReduced` over a δ sweep on a graph reduced once in
    * set-up, so the reduction cascade is bypassed. The graph is generated
    * with the spec's own seed; the workload seed draws `labelings`
    * relabelings of the reduced graph (vertex order permuted), and query
    * `i` searches labeling `i` at δ `deltas(i % deltas.size)`. The vertex
    * order sets the coloring and the branching order, so one order's
    * search work can be twice another's; many orders per run average
    * that out.
    */
  final case class SearchSweep(name: String, input: Input, k: Int, deltas: Seq[Int],
                               labelings: Int) extends Workload {
    def setUp(spark: SparkSession, seed: Long): Instance = {
      val g = input.generate(spark, input.defaultSeed)
      val full = g.toLocal
      val (reduced, _) = LocalReductions.cascade(full, Coloring.greedyLocal(full), k)
      val rnd = new scala.util.Random(seed)
      val relabeled = (1 to labelings).map(_ => relabel(reduced, rnd))
      new SearchInstance(spark, full, g.numEdges, reduced, relabeled, k, deltas)
    }
  }

  /** `g` with its vertices reordered by a random permutation; the id set is
    * unchanged, ids move with the new order. Returns the map from the new
    * ids back to the old ones.
    */
  def relabel(g: LocalGraph, rnd: scala.util.Random): (LocalGraph, Map[Long, Long]) = {
    val pi = rnd.shuffle((0 until g.n).toVector).toArray
    val attr = new Array[Int](g.n)
    val adj = new Array[Array[Int]](g.n)
    (0 until g.n).foreach { u =>
      attr(pi(u)) = g.attr(u)
      adj(pi(u)) = g.adj(u).map(pi).sorted
    }
    (new LocalGraph(g.ids, attr, adj), (0 until g.n).map(u => g.ids(pi(u)) -> g.ids(u)).toMap)
  }

  val all: Seq[Workload] = Seq(
    Cascade("cascade", Input("aminer-lite", 0.01), k = 4, delta = 3),
    SearchSweep("search-giant", Input("themarker-lite", 0.25), k = 2, deltas = 1 to 5,
      labelings = 60),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** The driver-side mirror's optimum: `LocalReductions.cascade` then
    * `Search.maxRFC` seeded by HeurRFC, with the pipeline's bounds.
    */
  def referenceSize(reduced: LocalGraph, k: Int, delta: Int): Int = {
    val heur = Heuristics.heurRFC(reduced, k, delta).clique
    Search.maxRFC(reduced, k, delta, config.bounds, heur).size
  }

  /** Checks one answer against the input graph and the reference size. */
  def verify(input: LocalGraph, index: Map[Long, Int], k: Int, delta: Int,
             ids: Array[Long], reference: Int): Option[String] = {
    val internal = ids.flatMap(index.get)
    val problem =
      if (internal.length != ids.length) Some("ids outside the input graph")
      else if (internal.distinct.length != internal.length) Some("repeated ids")
      else if (!input.isClique(internal)) Some("not a clique in the input graph")
      else if (!FairClique.isFairClique(input, internal, k, delta)) Some("not fair")
      else if (ids.length != reference) Some(s"size ${ids.length} != reference $reference")
      else None
    problem.map(p => s"δ=$delta: $p (ids ${ids.mkString(",")})")
  }

  private def indexOf(g: LocalGraph): Map[Long, Int] = g.ids.zipWithIndex.toMap

  /** Search-layer replays shared by both kinds of workload. */
  private def replaySearchLayers(t: Tracer, reduced: LocalGraph, k: Int, delta: Int,
                                 reference: Int): Unit = {
    val heur = t.span("core.Heuristics.heurRFC")(Heuristics.heurRFC(reduced, k, delta))
    t.note("core.Heuristics.heurRFC.size", heur.clique.length)
    t.note("core.Heuristics.heurRFC.gap", reference - heur.clique.length)
    val comps = t.span("graph.LocalGraph.connectedComponents")(reduced.connectedComponents)
    t.note("graph.LocalGraph.connectedComponents.components", comps.length)
    t.note("graph.LocalGraph.connectedComponents.largest_vertices",
      if (comps.isEmpty) 0 else comps.map(_.length).max)
    val r = t.span("core.Search.maxRFC")(
      Search.maxRFC(reduced, k, delta, config.bounds, heur.clique))
    t.note("core.Search.maxRFC.nodes", r.nodes, additive = true)
    t.note("core.Search.maxRFC.pruned_by_bound", r.prunedByBound, additive = true)
    if (r.size != reference)
      throw new IllegalStateException(s"Search.maxRFC replay found ${r.size}, reference $reference")
  }

  final class CascadeInstance(spark: SparkSession, g: AttributedGraph, k: Int, delta: Int)
      extends Instance {
    import spark.implicits._

    private val input = g.toLocal
    private val m = g.numEdges
    private val index = indexOf(input)
    private val reduced = LocalReductions.cascade(input, Coloring.greedyLocal(input), k)._1
    private val reference = referenceSize(reduced, k, delta)

    def info: Seq[(String, Any)] = Seq("n" -> input.n, "m" -> m, "k" -> k, "delta" -> delta,
      "reference" -> reference, "reduced_n" -> reduced.n, "reduced_m" -> reduced.m)

    def size: Int = 1

    def warmUp: Seq[Int] = Seq(0)

    def query(i: Int): Pipeline.Result = Pipeline.run(spark, g, k, delta, config)

    /** `Pipeline.run` → `Reductions.cascade` → `Pipeline.searchReduced`,
      * step for step, with the layer functions called exactly as there.
      */
    def tracedQuery(t: Tracer, i: Int): Pipeline.Result = {
      val self = "core.Reductions.cascade.self"
      val lg = t.span("graph.AttributedGraph.toLocal")(g.toLocal)
      t.note("graph.AttributedGraph.toLocal.rows", lg.n + lg.m, additive = true)
      val colorArr = t.span("graph.Coloring.greedyLocal")(Coloring.greedyLocal(lg))
      t.note("graph.Coloring.greedyLocal.colors", Coloring.numColors(colorArr))
      val colors = t.span(self)((0 until lg.n).map(i => (lg.ids(i), colorArr(i)))
        .toDF("id", "color").localCheckpoint(true))

      def stage(layer: String, stageName: String, edgesIn: Long)
               (reduce: => AttributedGraph): (AttributedGraph, Reductions.Stats) = {
        val out = t.span(layer)(reduce)
        val st = t.span(self)(Reductions.Stats(stageName, out.numVertices, out.numEdges))
        t.note(s"$layer.edges_in", edgesIn)
        t.note(s"$layer.edges_out", st.edges)
        (out, st)
      }
      val (g1, s1) = stage("core.ColorfulDegrees.enColorfulCore", "EnColorfulCore", m)(
        ColorfulDegrees.enColorfulCore(g, colors, k - 1))
      val (g2, s2) = stage("core.Reductions.colorfulSupReduce", "ColorfulSup", s1.edges)(
        Reductions.colorfulSupReduce(g1, colors, k))
      val (g3, s3) = stage("core.Reductions.enColorfulSupReduce", "EnColorfulSup", s2.edges)(
        Reductions.enColorfulSupReduce(g2, colors, k))
      val lgR = t.span("graph.AttributedGraph.toLocal")(g3.toLocal)
      t.note("graph.AttributedGraph.toLocal.rows", lgR.n + lgR.m, additive = true)
      lastReduced = lgR
      t.span("core.Pipeline.searchReduced")(
        Pipeline.searchReduced(spark, lgR, k, delta, config, Seq(s1, s2, s3)))
    }

    private var lastReduced: LocalGraph = reduced

    def replaySearch(t: Tracer, i: Int): Unit =
      replaySearchLayers(t, lastReduced, k, delta, reference)

    def check(i: Int, r: Pipeline.Result): Option[String] =
      verify(input, index, k, delta, r.cliqueIds, reference)
  }

  final class SearchInstance(spark: SparkSession, input: LocalGraph, m: Long,
                             reduced: LocalGraph, labelings: Seq[(LocalGraph, Map[Long, Long])],
                             k: Int, deltas: Seq[Int]) extends Instance {
    private val index = indexOf(input)
    // relabelings are isomorphic to `reduced`: one reference per δ serves all
    private val references: Map[Int, Int] =
      deltas.map(d => d -> referenceSize(reduced, k, d)).toMap

    def info: Seq[(String, Any)] = Seq("n" -> input.n, "m" -> m, "k" -> k,
      "deltas" -> deltas.mkString(","), "labelings" -> labelings.size,
      "reference" -> deltas.map(references).mkString(","),
      "reduced_n" -> reduced.n, "reduced_m" -> reduced.m)

    def size: Int = labelings.size

    // set-up already ran the search code at every δ; ten queries finish its JIT
    def warmUp: Seq[Int] = 0 until 10

    private def delta(i: Int): Int = deltas(i % deltas.size)

    def query(i: Int): Pipeline.Result =
      Pipeline.searchReduced(spark, labelings(i)._1, k, delta(i), config)

    def tracedQuery(t: Tracer, i: Int): Pipeline.Result =
      t.span("core.Pipeline.searchReduced")(
        Pipeline.searchReduced(spark, labelings(i)._1, k, delta(i), config))

    def replaySearch(t: Tracer, i: Int): Unit =
      replaySearchLayers(t, labelings(i)._1, k, delta(i), references(delta(i)))

    def check(i: Int, r: Pipeline.Result): Option[String] = {
      val back = labelings(i)._2
      verify(input, index, k, delta(i), r.cliqueIds.map(id => back.getOrElse(id, -1L)),
        references(delta(i)))
    }
  }
}
