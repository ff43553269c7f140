package repro.core

import org.apache.spark.sql.SparkSession

import repro.graph.{AttributedGraph, LocalGraph}

/** End-to-end maximum fair clique pipeline (Algorithm 2).
  *
  * 1. Reduction cascade: EnColorfulCore → ColorfulSup → EnColorfulSup
  *    with one global coloring (`Reductions.cascade`). Stages peel with
  *    DataFrames while the live graph has more than
  *    `Reductions.LocalEdgeLimit` edges and on the driver once it fits;
  *    the input is collected once, and the reduced graph comes back as a
  *    `LocalGraph`.
  * 2. Optionally run HeurRFC on the reduced graph to seed `R*` (the
  *    paper's Remark in Section V).
  * 3. Branch-and-bound per connected component; components are searched
  *    as parallel Spark tasks (the paper loops over components
  *    sequentially — the per-component searches are independent, so this
  *    is a pure parallelization). Each task starts from the heuristic
  *    incumbent size; the global best is the max over tasks.
  */
object Pipeline {

  /** Pipeline configuration: which upper bounds the search evaluates at
    * top-level branches and whether HeurRFC seeds the incumbent.
    */
  final case class Config(
      bounds: Bounds.BoundConfig = Bounds.BoundConfig.none,
      useHeuristic: Boolean = false,
      /** search components as Spark tasks (true) or on the driver. */
      distributedSearch: Boolean = true)

  /** Result: external vertex ids of the optimum, sizes and search stats. */
  final case class Result(
      cliqueIds: Array[Long],
      reducedVertices: Long,
      reducedEdges: Long,
      heuristicSize: Int,
      nodes: Long,
      reductionStats: Seq[Reductions.Stats]) {
    def size: Int = cliqueIds.length
  }

  /** Run the full pipeline on a distributed graph. */
  def run(spark: SparkSession, g: AttributedGraph, k: Int, delta: Int,
          config: Config = Config()): Result = {
    checkParams(k, delta)
    val (reduced, stats) = Reductions.cascade(spark, g, k)
    searchReduced(spark, reduced, k, delta, config, stats)
  }

  private def checkParams(k: Int, delta: Int): Unit = {
    require(k >= 1, s"k must be at least 1, got $k")
    require(delta >= 0, s"delta must be non-negative, got $delta")
  }

  /** Search an already-reduced local graph (used by benches that sweep
    * δ / bound configs without repeating the k-dependent reduction).
    */
  def searchReduced(spark: SparkSession, lg: LocalGraph, k: Int, delta: Int,
                    config: Config,
                    stats: Seq[Reductions.Stats] = Seq.empty): Result = {
    checkParams(k, delta)
    val heur =
      if (config.useHeuristic) Heuristics.heurRFC(lg, k, delta).clique
      else Array.empty[Int]
    val heurIds = heur.map(i => lg.ids(i))

    val comps = lg.connectedComponents
      .filter(_.length >= math.max(2 * k, heur.length + 1))
      .map(c => lg.inducedSubgraph(c))

    val (bestIds, nodes): (Array[Long], Long) =
      if (comps.isEmpty) (heurIds, 0L)
      else {
        val k0 = k; val d0 = delta; val b0 = config.bounds; val seed0 = heur.length
        val results: Seq[(Array[Long], Long)] =
          if (config.distributedSearch) {
            spark.sparkContext
              .parallelize(comps, math.min(comps.length, 64))
              .map { sub =>
                val r = Search.searchComponent(sub, k0, d0, b0, seed0)
                (r.clique.map(i => sub.ids(i)), r.nodes)
              }
              .collect().toSeq
          } else {
            comps.map { sub =>
              val r = Search.searchComponent(sub, k0, d0, b0, seed0)
              (r.clique.map(i => sub.ids(i)), r.nodes)
            }
          }
        val totalNodes = results.map(_._2).sum
        val winner = results.map(_._1).maxBy(_.length)
        (if (winner.length > heurIds.length) winner else heurIds, totalNodes)
      }

    Result(bestIds.sorted, lg.n.toLong, lg.m, heurIds.length, nodes, stats)
  }
}
