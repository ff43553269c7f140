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
  * 2. Optionally seed `R*` (the paper's Remark in Section V) with
  *    HeurRFC's clique on the reduced graph and, per component, with the
  *    ego seed pass of `Search.maxRFC`, whichever is larger. HeurRFC is
  *    handed to `Search.maxRFC` unevaluated: a parallel search runs it on
  *    a helper thread while the calling thread splits the graph into
  *    components and builds the first one's peel order.
  * 3. Branch-and-bound (`Search.maxRFC`) on the driver: components one
  *    after another, the root branches of each searched by parallel
  *    threads that share one live incumbent. The clique, and the seed
  *    size, are those of the one-thread search (`Search.maxRFC` explains
  *    the tie rule).
  */
object Pipeline {

  /** Pipeline configuration: which upper bounds the search evaluates at
    * top-level branches, whether heuristics seed the incumbent, and whether
    * the search runs on parallel threads.
    */
  final case class Config(
      bounds: Bounds.BoundConfig = Bounds.BoundConfig.none,
      /** seed the incumbent with the larger of HeurRFC's clique and the
        * cliques of the ego seed pass (`Search.maxRFC`'s `egoSeed`); the
        * optimum size does not change, the search work may only fall.
        */
      useHeuristic: Boolean = false,
      /** search on `min(defaultParallelism, cores)` driver threads (true) or
        * on the calling thread only; the clique is the same.
        */
      distributedSearch: Boolean = true)

  /** Result: external vertex ids of the optimum, sizes and search stats. */
  final case class Result(
      cliqueIds: Array[Long],
      reducedVertices: Long,
      reducedEdges: Long,
      /** size of the seed clique the search started from (`Search.Result.seedSize`) */
      heuristicSize: Int,
      nodes: Long,
      prunedByBound: Long,
      /** a search budget cut the search short: the clique is a lower bound */
      truncated: Boolean,
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
    val parallelism =
      if (config.distributedSearch)
        math.min(spark.sparkContext.defaultParallelism, Runtime.getRuntime.availableProcessors)
      else 1
    // evaluated by the search, beside its first peel order when parallel
    val res = Search.maxRFC(lg, k, delta, config.bounds,
      if (config.useHeuristic) Heuristics.heurRFC(lg, k, delta).clique else Array.empty,
      parallelism = parallelism, egoSeed = config.useHeuristic)
    Result(res.clique.map(lg.ids).sorted, lg.n.toLong, lg.m, res.seedSize, res.nodes,
      res.prunedByBound, res.truncated, stats)
  }
}
