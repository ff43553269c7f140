package perfbench

import org.apache.spark.sql.SparkSession

import repro.core.Pipeline

import scala.collection.mutable
import scala.util.control.NonFatal

/** Benchmark driver: one client issuing queries in a closed loop (the next
  * query starts when the previous one returns) against Spark `local[N]`.
  *
  * Usage: `Main --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
  *
  * With `--trace 0` it times the public entry points and prints the
  * end-to-end metrics; with `--trace 1` it alternates untraced queries with
  * layer-by-layer replays and prints the per-layer metrics. The last line
  * of standard output is one JSON object; informational lines before it
  * start with `#`.
  */
object Main {

  /** Set-up repetitions per run; `setup_s` is their median. */
  private val SetupRepeats = 3

  private val CascadeLayers = Seq(
    "core.ColorfulDegrees.enColorfulCore",
    "core.Reductions.colorfulSupReduce",
    "core.Reductions.enColorfulSupReduce")

  /** Every per-layer metric with its unit, printed on every traced run
    * (0 when the workload never calls the layer).
    */
  val perLayerMetrics: Seq[(String, String)] =
    CascadeLayers.flatMap(l => Seq(
      s"$l.wall_ms" -> "ms", s"$l.spark_jobs" -> "count", s"$l.tasks" -> "count",
      s"$l.task_busy_ms" -> "ms", s"$l.shuffle_read_mb" -> "MB",
      s"$l.edges_in" -> "count", s"$l.edges_out" -> "count",
      s"$l.edges_removed_per_job" -> "count")) ++ Seq(
      "core.Reductions.cascade.self_ms" -> "ms",
      "graph.AttributedGraph.toLocal.wall_ms" -> "ms",
      "graph.AttributedGraph.toLocal.rows" -> "count",
      "graph.AttributedGraph.toLocal.result_mb" -> "MB",
      "graph.Coloring.greedyLocal.wall_ms" -> "ms",
      "graph.Coloring.greedyLocal.colors" -> "count",
      "core.Heuristics.heurRFC.wall_ms" -> "ms",
      "core.Heuristics.heurRFC.size" -> "count",
      "core.Heuristics.heurRFC.gap" -> "count",
      "graph.LocalGraph.connectedComponents.wall_ms" -> "ms",
      "graph.LocalGraph.connectedComponents.components" -> "count",
      "graph.LocalGraph.connectedComponents.largest_vertices" -> "count",
      "core.Search.maxRFC.wall_ms" -> "ms",
      "core.Search.maxRFC.nodes" -> "count",
      "core.Search.maxRFC.pruned_by_bound" -> "count",
      "core.Search.maxRFC.nodes_per_s" -> "1/s",
      "core.Pipeline.searchReduced.wall_ms" -> "ms",
      "core.Pipeline.searchReduced.spark_jobs" -> "count",
      "core.Pipeline.searchReduced.tasks" -> "count",
      "core.Pipeline.searchReduced.task_max_ms" -> "ms",
      "core.Pipeline.searchReduced.straggler_share" -> "ratio",
      "trace.overhead_s" -> "s",
      "trace.coverage" -> "ratio")

  final case class Args(workload: String, seed: Option[Long], seconds: Double, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    Args(
      kv.getOrElse("workload", throw new IllegalArgumentException("--workload is required")),
      kv.get("seed").map(_.toLong),
      kv.get("seconds").map(_.toDouble).getOrElse(10.0),
      kv.get("trace").exists(_ != "0"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val workload = Workloads.byName(args.workload)
    val seed = args.seed.getOrElse(workload.input.defaultSeed)
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    // Session settings of the test suite's SparkSpec, with a fixed core count.
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    try run(spark, workload, seed, args)
    finally spark.stop()
  }

  private def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def run(spark: SparkSession, workload: Workloads.Workload, seed: Long,
                  args: Args): Unit = {
    val counters = new SparkCounters(spark.sparkContext)
    var instance: Instance = null
    val setupTimes = (1 to SetupRepeats).map { _ =>
      instance = null
      val t0 = System.nanoTime()
      instance = workload.setUp(spark, seed)
      seconds(t0)
    }
    val conf = spark.conf
    info(Seq("workload" -> workload.name, "seed" -> seed, "dataset" -> workload.input.dataset,
      "scale" -> workload.input.scale) ++ instance.info ++ Seq(
      "master" -> spark.sparkContext.master,
      "cores" -> spark.sparkContext.defaultParallelism,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "aqe" -> conf.get("spark.sql.adaptive.enabled"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1 << 20),
      "jvm" -> System.getProperty("java.version"),
      "spark" -> spark.version,
      "setup_runs_s" -> setupTimes.map(fmt).mkString(",")))

    val client = new Client(instance)
    // Untimed warm-up: JIT and Spark's lazy initialization.
    val warm0 = System.nanoTime()
    instance.warmUp.foreach(i => client.attempt(i)(instance.query(i)))
    counters.read()
    info(Seq("warmup_s" -> seconds(warm0)))

    val metrics =
      if (!args.trace) endToEnd(client, counters, args.seconds, setupTimes)
      else perLayer(client, counters, args.seconds)

    val body = metrics.map { case (name, (value, unit)) =>
      s""""$name": {"value": ${fmt(value)}, "unit": "$unit"}"""
    }.mkString(", ")
    println(s"""{"correct": ${client.failed == 0}, "attempted": ${client.attempted}, """ +
      s""""failed": ${client.failed}, "metrics": {$body}}""")
  }

  /** Issues checked queries and counts them. A query fails when it throws
    * or its answer is wrong; every failure is printed to standard error.
    */
  final class Client(val instance: Instance) {
    var attempted = 0
    var failed = 0

    def attempt(i: Int)(body: => Pipeline.Result): Option[Pipeline.Result] = {
      attempted += 1
      val outcome =
        try {
          val r = body
          val problem = instance.check(i, r)
          problem.foreach(p => Console.err.println(s"[perfbench] wrong answer: $p"))
          if (problem.isEmpty) Some(r) else None
        } catch {
          case NonFatal(e) =>
            Console.err.println(s"[perfbench] query $i failed: $e")
            None
        }
      if (outcome.isEmpty) failed += 1
      outcome
    }

    /** Runs `query` on query numbers 0, 1, 2, … (cycling through the
      * instance's queries) until `budget` seconds have passed; at least once.
      */
    def loop(budget: Double)(query: Int => Unit): Unit = {
      val start = System.nanoTime()
      var issued = 0
      while (issued == 0 || seconds(start) < budget) {
        query(issued % instance.size)
        issued += 1
      }
    }
  }

  private def endToEnd(client: Client, counters: SparkCounters, budget: Double,
                       setupTimes: Seq[Double]): Seq[(String, (Double, String))] = {
    val times = mutable.ArrayBuffer.empty[Double]
    val resultMb = mutable.ArrayBuffer.empty[Double]
    var correct = 0
    client.loop(budget) { i =>
      val t0 = System.nanoTime()
      val ok = client.attempt(i)(client.instance.query(i)).isDefined
      times += seconds(t0)
      resultMb += counters.read().resultBytes / 1e6
      if (ok) correct += 1
    }
    val (tailPct, tail) = Stats.tail(times.toSeq)
    info(Seq("queries" -> times.length, "tail_percentile" -> tailPct,
      "query_s" -> times.map(fmt).mkString(",")))
    Seq(
      "query_s.p50" -> (Stats.median(times.toSeq), "s"),
      "query_s.tail" -> (tail, "s"),
      "setup_s" -> (Stats.median(setupTimes), "s"),
      "correct_frac" -> (correct.toDouble / times.length, "ratio"),
      "driver_result_mb" -> (Stats.median(resultMb.toSeq), "MB"))
  }

  /** Alternates an untraced query with its traced replay,
    * then replays the search layers outside the query.
    */
  private def perLayer(client: Client, counters: SparkCounters,
                       budget: Double): Seq[(String, (Double, String))] = {
    val instance = client.instance
    val tracer = new Tracer(counters)
    val untraced = mutable.ArrayBuffer.empty[Double]
    val traced = mutable.ArrayBuffer.empty[Double]
    val perQuery = mutable.ArrayBuffer.empty[Map[String, Double]]
    client.loop(budget) { i =>
      val q = traced.length + 1
      val t0 = System.nanoTime()
      val plain = client.attempt(i)(instance.query(i))
      untraced += seconds(t0)
      tracer.startQuery(q)
      val t1 = System.nanoTime()
      val replayed = client.attempt(i)(instance.tracedQuery(tracer, i))
      val wall = seconds(t1)
      traced += wall
      for (p <- plain; r <- replayed)
        if (p.reductionStats != r.reductionStats || p.size != r.size)
          throw new IllegalStateException(
            s"traced replay of query $i drifted from the pipeline: " +
            s"pipeline ${p.reductionStats} size ${p.size}, " +
            s"replay ${r.reductionStats} size ${r.size}")
      val covered = tracer.spans.filter(_.query == q).map(_.wallMs).sum / 1e3
      instance.replaySearch(tracer, i)
      perQuery += Stats.layerMetrics(tracer, q) + ("trace.coverage" -> covered / wall)
    }
    info(Seq("queries" -> traced.length, "untraced_s" -> untraced.map(fmt).mkString(","),
      "traced_s" -> traced.map(fmt).mkString(",")))
    val overhead = Stats.median(traced.toSeq) - Stats.median(untraced.toSeq)
    perLayerMetrics.map { case (name, unit) =>
      val v =
        if (name == "trace.overhead_s") overhead
        else Stats.median(perQuery.map(_.getOrElse(name, 0.0)).toSeq)
      name -> (v, unit)
    }
  }

  private def fmt(v: Any): String = v match {
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double => d.toString
    case other => other.toString
  }

  /** One informational JSON line on standard output, prefixed with `#`. */
  private def info(fields: Seq[(String, Any)]): Unit = {
    val body = fields.map {
      case (k, v: String) => s""""$k": "${v.replace("\"", "'")}""""
      case (k, v) => s""""$k": ${fmt(v)}"""
    }.mkString(", ")
    println(s"# {$body}")
  }
}

/** Order statistics and the aggregation of spans into per-layer metrics. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** The highest whole percentile with at least ten samples above it
    * (nearest rank), and its value. With ten samples or fewer no such
    * percentile exists; the maximum is reported as percentile 100.
    */
  def tail(xs: Seq[Double]): (Int, Double) = {
    val s = xs.sorted
    val n = s.length
    (99 to 1 by -1).iterator.map(p => p -> math.ceil(p * n / 100.0).toInt)
      .find { case (_, rank) => rank >= 1 && n - rank >= 10 }
      .map { case (p, rank) => p -> s(rank - 1) }
      .getOrElse(100 -> s.last)
  }

  /** One query's per-layer values from its spans and notes. */
  def layerMetrics(t: Tracer, q: Int): Map[String, Double] = {
    val out = mutable.Map.empty[String, Double]
    t.spans.filter(_.query == q).groupBy(_.name).foreach { case (name, spans) =>
      val wall = spans.map(_.wallMs).sum
      def sum(f: Counters => Long): Double = spans.map(s => f(s.spark).toDouble).sum
      if (name.endsWith(".self")) out(s"$name" + "_ms") = wall
      else {
        out(s"$name.wall_ms") = wall
        out(s"$name.spark_jobs") = sum(_.jobs)
        out(s"$name.tasks") = sum(_.tasks)
        out(s"$name.task_busy_ms") = sum(_.taskBusyMs)
        out(s"$name.shuffle_read_mb") = sum(_.shuffleReadBytes) / 1e6
        out(s"$name.result_mb") = sum(_.resultBytes) / 1e6
        out(s"$name.task_max_ms") = spans.map(_.spark.taskMaxMs.toDouble).max
        out(s"$name.straggler_share") =
          spans.map(s => if (s.wallMs > 0) s.spark.taskMaxMs / s.wallMs else 0.0).sum / spans.length
      }
    }
    t.notes.filter(_._1 == q).groupBy(_._2).foreach { case (name, ns) =>
      val total = ns.map(_._3).sum
      out(name) = if (ns.head._4) total else total / ns.length
    }
    Seq("core.ColorfulDegrees.enColorfulCore", "core.Reductions.colorfulSupReduce",
        "core.Reductions.enColorfulSupReduce").foreach { l =>
      val jobs = out.getOrElse(s"$l.spark_jobs", 0.0)
      if (jobs > 0)
        out(s"$l.edges_removed_per_job") =
          (out(s"$l.edges_in") - out(s"$l.edges_out")) / jobs
    }
    val searchMs = out.getOrElse("core.Search.maxRFC.wall_ms", 0.0)
    if (searchMs > 0)
      out("core.Search.maxRFC.nodes_per_s") = out("core.Search.maxRFC.nodes") / (searchMs / 1e3)
    out.toMap
  }
}
