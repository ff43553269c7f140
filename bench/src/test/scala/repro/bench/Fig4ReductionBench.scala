package repro.bench

import repro.core.{LocalReductions, Reductions}
import repro.synth.LiteDatasets

/** Fig 4/5 (tabulated): vertices/edges remaining after EnColorfulCore,
  * ColorfulSup and EnColorfulSup, per dataset and k.
  *
  * The k sweep uses the sequential mirror of the cascade (bit-identical
  * fixpoints, cross-validated in ReductionsSpec); one all-DataFrame
  * cascade (`localEdgeLimit = 0`) runs per dataset at the default k to
  * exercise the Spark peeling path at bench scale, next to the default
  * size-switched cascade that `Pipeline.run` uses.
  */
class Fig4ReductionBench extends BenchHarness {

  for (spec <- LiteDatasets.specs) {
    test(s"Fig 4 rows for ${spec.name}: reduction sweep over k") {
      val g = BenchData.graph(spark, spec.name)
      val colors = BenchData.colors(spark, spec.name)
      val rows = spec.kRange.map { k =>
        val (_, stats) = LocalReductions.cascade(g, colors, k)
        Seq(k.toString, s"${g.n}/${g.m}") ++ stats.map(s => s"${s.vertices}/${s.edges}")
      }
      printTable(
        s"Fig 4 — ${spec.name}: vertices/edges remaining",
        Seq("k", "original", "EnColorfulCore", "ColorfulSup", "EnColorfulSup"),
        rows)
      // reductions are nested: each stage removes at least as much
      rows.foreach { r =>
        val ms = r.drop(1).map(_.split("/")(1).toLong)
        assert(ms == ms.sorted.reverse, s"stage edge counts not decreasing: $r")
      }
    }
  }

  test("Fig 4: distributed DataFrame cascade at default k per dataset") {
    val rows = LiteDatasets.specs.map { spec =>
      val ag = LiteDatasets.load(spark, spec.name)
      val ((_, stats), t) =
        timed(Reductions.cascade(spark, ag, spec.kDefault, localEdgeLimit = 0))
      val ((_, switchedStats), tSwitched) = timed(Reductions.cascade(spark, ag, spec.kDefault))
      val (lgR, localStats, _) = BenchData.reducedGraph(spark, spec.name, spec.kDefault)
      // distributed, size-switched and sequential cascades reach the same fixpoint
      assert(stats == localStats && switchedStats == localStats,
        s"${spec.name}: distributed=$stats switched=$switchedStats local=$localStats")
      assert(lgR.m == stats.last.edges)
      Seq(spec.name, spec.kDefault.toString,
        stats.map(s => s"${s.vertices}/${s.edges}").mkString(" -> "), ms(t), ms(tSwitched))
    }
    printTable("Fig 4 — distributed cascade (vertices/edges per stage)",
      Seq("dataset", "k", "EnColorfulCore -> ColorfulSup -> EnColorfulSup", "DataFrame ms",
        "switched ms"),
      rows)
  }
}
