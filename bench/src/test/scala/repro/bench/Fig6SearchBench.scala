package repro.bench

import repro.core.{Bounds, Heuristics, Search}
import repro.synth.LiteDatasets

/** Fig 6/7 (tabulated): runtime of the three algorithm variants —
  * MaxRFC (basic prunes only), MaxRFC+ub (best upper-bound config), and
  * MaxRFC+ub+HeurRFC (heuristic-seeded incumbent) — sweeping k and δ.
  * All three share the reduction cascade (Algorithm 2 lines 1–3); time =
  * reduction + (heuristic +) search. Node-budget-exhausted cells are INF;
  * when all three are, `|MaxRFC|` prints as a lower bound, `>=N`.
  */
class Fig6SearchBench extends BenchHarness {

  private val nodeLimit = 20_000_000L

  private def ubCfg = Bounds.BoundConfig(ad = true, colorfulDegeneracy = true)

  /** One sweep cell: per-variant (display time, nodes, size, truncated). */
  private def variants(name: String, k: Int, delta: Int): Seq[(String, Long, Int, Boolean)] = {
    val (g, _, redMs) = BenchData.reducedGraph(spark, name, k)
    val (r0, t0) = timed(Search.maxRFC(g, k, delta, nodeLimit = nodeLimit))
    val (r1, t1) = timed(Search.maxRFC(g, k, delta, ubCfg, nodeLimit = nodeLimit))
    val (r2, t2) = timed {
      val heur = Heuristics.heurRFC(g, k, delta).clique
      Search.maxRFC(g, k, delta, ubCfg, initialBest = heur, nodeLimit = nodeLimit)
    }
    val sizes = Seq(r0, r1, r2).filter(!_.truncated).map(_.size).distinct
    assert(sizes.length <= 1, s"$name k=$k d=$delta: variants disagree: $sizes")
    Seq((r0, t0), (r1, t1), (r2, t2)).map { case (r, t) =>
      ((if (r.truncated) "INF" else ms(redMs + t)), r.nodes, r.size, r.truncated)
    }
  }

  private val header = Seq("k", "|MaxRFC|",
    "MaxRFC", "MaxRFC+ub", "MaxRFC+ub+HeurRFC",
    "nodes", "nodes+ub", "nodes+ub+heur")

  private def row(label: String, vs: Seq[(String, Long, Int, Boolean)]): Seq[String] =
    Seq(label, sizeCell(vs.map(_._3).max, vs.forall(_._4))) ++ vs.map(_._1) ++
      vs.map(_._2.toString)

  for (spec <- LiteDatasets.specs) {
    test(s"Fig 6 rows for ${spec.name}: k sweep") {
      val rows = spec.kRange.map { k =>
        row(k.toString, variants(spec.name, k, spec.deltaDefault))
      }
      printTable(
        s"Fig 6 — ${spec.name} (delta=${spec.deltaDefault}), time ms + search nodes",
        header, rows)
    }
  }

  for (spec <- Seq(LiteDatasets.spec("aminer-lite"), LiteDatasets.spec("flixster-lite"))) {
    test(s"Fig 6 rows for ${spec.name}: delta sweep") {
      val rows = spec.deltaRange.map { d =>
        row(d.toString, variants(spec.name, spec.kDefault, d))
      }
      printTable(
        s"Fig 6 — ${spec.name} (k=${spec.kDefault}), time ms + search nodes",
        header.updated(0, "delta"), rows)
    }
  }
}
