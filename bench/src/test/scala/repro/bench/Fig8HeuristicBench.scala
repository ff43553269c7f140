package repro.bench

import repro.core.{Bounds, Heuristics, Search}
import repro.synth.LiteDatasets

/** Fig 8 (tabulated): size of the fair clique found by the linear-time
  * HeurRFC vs the exact maximum, per dataset and k. The paper reports a
  * gap of at most 6 on most datasets (0 on DBLP). The last two columns
  * are the ego seed pass of the search (`Search.egoClique`, not in the
  * paper), which the pipeline seeds the search with next to HeurRFC.
  */
class Fig8HeuristicBench extends BenchHarness {

  private def ubCfg = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true)

  for (spec <- LiteDatasets.specs) {
    test(s"Fig 8 rows for ${spec.name}") {
      val rows = spec.kRange.map { k =>
        val (g, _, _) = BenchData.reducedGraph(spark, spec.name, k)
        val (heur, heurMs) = timed(Heuristics.heurRFC(g, k, spec.deltaDefault))
        val (ego, egoMs) = timed(Search.egoClique(g, k, spec.deltaDefault))
        val exact = Search.maxRFC(g, k, spec.deltaDefault, ubCfg,
          initialBest = heur.clique)
        assert(heur.clique.length <= exact.size)
        assert(ego.length <= exact.size)
        Seq(k.toString, heur.clique.length.toString, exact.size.toString,
          (exact.size - heur.clique.length).toString, ms(heurMs),
          ego.length.toString, ms(egoMs))
      }
      printTable(
        s"Fig 8 — ${spec.name} (delta=${spec.deltaDefault})",
        Seq("k", "|HeurRFC|", "|MaxRFC|", "gap", "heur ms", "|Ego|", "ego ms"),
        rows)
    }
  }
}
