package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.{Bounds, Heuristics, Pipeline, Reductions}
import repro.synth.LiteDatasets

/** HeurRFC vs exact MaxRFC on one dataset analog (Fig 8 rows).
  *
  * Usage: spark-submit ... repro.jobs.HeuristicJob [dataset] [k] [delta]
  */
object HeuristicJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("fair-clique-heuristic")
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    try {
      val name = args.headOption.getOrElse("aminer-lite")
      val spec = LiteDatasets.spec(name)
      val k = args.lift(1).map(_.toInt).getOrElse(spec.kDefault)
      val delta = args.lift(2).map(_.toInt).getOrElse(spec.deltaDefault)
      val g = LiteDatasets.load(spark, name)
      val (lg, _) = Reductions.cascade(spark, g, k)
      val heur = Heuristics.heurRFC(lg, k, delta)
      val exact = Pipeline.searchReduced(spark, lg, k, delta,
        Pipeline.Config(Bounds.BoundConfig(ad = true, colorfulDegeneracy = true),
          useHeuristic = true))
      println(s"dataset=$name k=$k delta=$delta")
      println(s"  HeurRFC size = ${heur.clique.length}")
      println(s"  MaxRFC  size = ${exact.size}")
    } finally spark.stop()
  }
}
