package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core.Reductions
import repro.synth.LiteDatasets

/** Reduction-cascade statistics for one dataset analog (Fig 4/5 rows).
  *
  * Usage: spark-submit ... repro.jobs.ReductionJob [dataset] [k]
  */
object ReductionJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("fair-clique-reduction")
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    try {
      val name = args.headOption.getOrElse("aminer-lite")
      val spec = LiteDatasets.spec(name)
      val k = args.lift(1).map(_.toInt).getOrElse(spec.kDefault)
      val g = LiteDatasets.load(spark, name)
      println(s"dataset=$name n=${g.numVertices} m=${g.numEdges} k=$k")
      val (_, stats) = Reductions.cascade(spark, g, k)
      stats.foreach(s =>
        println(f"  after ${s.stage}%-16s vertices=${s.vertices}%8d edges=${s.edges}%10d"))
    } finally spark.stop()
  }
}
