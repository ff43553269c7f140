package repro.bench

import repro.core.{Bounds, Search}
import repro.synth.LiteDatasets

/** Table II: running time of MaxRFC equipped with each of the six
  * upper-bound configurations, sweeping k (δ at its default) and δ
  * (k at its default) per dataset. The reduction cascade is shared across
  * configurations (it does not depend on the bound choice), exactly as in
  * Algorithm 2; reported time = reduction + search, in ms.
  *
  * A node budget stands in for the paper's 12-hour limit; exhausted cells
  * print INF. When every cell of a row is INF, `|MaxRFC|` is only the
  * largest clique found and prints as a lower bound, `>=N`.
  */
class Table2UpperBoundsBench extends BenchHarness {

  private val nodeLimit = 20_000_000L

  private def cell(name: String, k: Int, delta: Int,
                   cfg: Bounds.BoundConfig, redMs: Double): (String, Int, Boolean) = {
    val (g, _, _) = BenchData.reducedGraph(spark, name, k)
    val (res, searchMs) = timed(Search.maxRFC(g, k, delta, cfg, nodeLimit = nodeLimit))
    (if (res.truncated) "INF" else ms(redMs + searchMs), res.size, res.truncated)
  }

  private def checkedRow(label: String, cells: Seq[(String, Int, Boolean)]): Seq[String] = {
    // every configuration that finished must agree on the optimum size
    val sizes = cells.collect { case (_, s, false) => s }.distinct
    assert(sizes.length <= 1, s"$label: configs disagree: $sizes")
    Seq(label, sizeCell(cells.map(_._2).max, cells.forall(_._3))) ++ cells.map(_._1)
  }

  for (spec <- LiteDatasets.specs) {
    test(s"Table II rows for ${spec.name}: k sweep") {
      val rows = spec.kRange.map { k =>
        val (_, _, redMs) = BenchData.reducedGraph(spark, spec.name, k)
        checkedRow(k.toString, Bounds.BoundConfig.table2.map { case (_, cfg) =>
          cell(spec.name, k, spec.deltaDefault, cfg, redMs)
        })
      }
      printTable(
        s"Table II — ${spec.name} (delta=${spec.deltaDefault}), time ms",
        Seq("k", "|MaxRFC|") ++ Bounds.BoundConfig.table2.map(_._1),
        rows)
    }

    test(s"Table II rows for ${spec.name}: delta sweep") {
      val k = spec.kDefault
      val (_, _, redMs) = BenchData.reducedGraph(spark, spec.name, k)
      val rows = spec.deltaRange.map { d =>
        checkedRow(d.toString, Bounds.BoundConfig.table2.map { case (_, cfg) =>
          cell(spec.name, k, d, cfg, redMs)
        })
      }
      printTable(
        s"Table II — ${spec.name} (k=$k), time ms",
        Seq("delta", "|MaxRFC|") ++ Bounds.BoundConfig.table2.map(_._1),
        rows)
    }
  }
}
