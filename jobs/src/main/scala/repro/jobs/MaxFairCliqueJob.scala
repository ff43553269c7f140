package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Bounds, Pipeline}
import repro.synth.LiteDatasets

/** End-to-end maximum fair clique search on a named dataset analog.
  *
  * Usage: spark-submit ... repro.jobs.MaxFairCliqueJob [dataset] [k] [delta]
  * Defaults: aminer-lite, the dataset's default k, δ.
  */
object MaxFairCliqueJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("max-fair-clique")
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    try {
      val name = args.headOption.getOrElse("aminer-lite")
      val spec = LiteDatasets.spec(name)
      val k = args.lift(1).map(_.toInt).getOrElse(spec.kDefault)
      val delta = args.lift(2).map(_.toInt).getOrElse(spec.deltaDefault)
      val g = LiteDatasets.load(spark, name)
      println(s"dataset=$name n=${g.numVertices} m=${g.numEdges} k=$k delta=$delta")
      val cfg = Pipeline.Config(
        bounds = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true),
        useHeuristic = true)
      val t0 = System.nanoTime()
      val res = Pipeline.run(spark, g, k, delta, cfg)
      val ms = (System.nanoTime() - t0) / 1e6
      res.reductionStats.foreach(s =>
        println(f"  after ${s.stage}%-16s vertices=${s.vertices}%8d edges=${s.edges}%10d"))
      println(f"starting incumbent size = ${res.heuristicSize} (larger of HeurRFC and ego seed)")
      println(f"maximum fair clique size = ${res.size} (${ms}%.1f ms, ${res.nodes} nodes)")
      println(s"vertices: ${res.cliqueIds.mkString(", ")}")
    } finally spark.stop()
  }
}
