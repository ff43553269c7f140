package repro.graph

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DataType, IntegerType, LongType}

import java.io.ByteArrayOutputStream
import java.util.Arrays

/** Distributed attributed graph.
  *
  * `vertices`: `(id: Long, attr: Int)` with `attr` 0 (= "a") or 1 (= "b").
  * `edges`: `(src: Long, dst: Long)` canonicalized to `src < dst`, no
  * self-loops, no duplicates. All reductions consume and produce this
  * shape, so the reduction cascade (Algorithm 2, lines 1–3) is plain
  * DataFrame-in / DataFrame-out composition.
  */
final case class AttributedGraph(vertices: DataFrame, edges: DataFrame) {

  def numVertices: Long = vertices.count()

  def numEdges: Long = edges.count()

  /** Both directions of every edge: `(x, y)` — the adjacency relation. */
  def symmetricEdges: DataFrame =
    edges.select(col("src").as("x"), col("dst").as("y"))
      .union(edges.select(col("dst").as("x"), col("src").as("y")))

  /** Degree per vertex; vertices with no edges get degree 0. */
  def degrees: DataFrame = {
    val d = symmetricEdges.groupBy(col("x").as("id")).agg(count(lit(1)).as("degree"))
    vertices.select("id")
      .join(d, Seq("id"), "left")
      .select(col("id"), coalesce(col("degree"), lit(0L)).as("degree"))
  }

  /** Restrict to the vertices in `keep` (a DataFrame with column `id`). */
  def inducedBy(keep: DataFrame): AttributedGraph = {
    val ks = keep.select("id").distinct()
    val e = edges
      .join(ks.withColumnRenamed("id", "src"), Seq("src"))
      .join(ks.withColumnRenamed("id", "dst"), Seq("dst"))
      .select("src", "dst")
    AttributedGraph(vertices.join(ks, Seq("id")).select("id", "attr"), e)
  }

  /** Drop vertices that no longer touch any edge (post edge-peeling). */
  def dropIsolated: AttributedGraph = {
    val touched = symmetricEdges.select(col("x").as("id")).distinct()
    AttributedGraph(vertices.join(touched, Seq("id")).select("id", "attr"), edges)
  }

  /** Materialize both sides and cut lineage (used between peel rounds). */
  def checkpointed(): AttributedGraph =
    AttributedGraph(AttributedGraph.refreshed(vertices), AttributedGraph.refreshed(edges))

  /** Collect into a [[LocalGraph]] with one Spark job. Every pipeline
    * input passes through here, so this is where the input contract is
    * checked: `id: long`, `attr: int`, `src` and `dst: long`, no nulls,
    * unique vertex ids, attributes 0 or 1, and a vertex row for every edge
    * endpoint. Anything else is rejected with an `IllegalArgumentException`.
    */
  def toLocal: LocalGraph = AttributedGraph.collectLocal(vertices, edges)
}

object AttributedGraph {

  /** Materialize a DataFrame and rebase it on the checkpointed RDD.
    *
    * `localCheckpoint` alone truncates lineage but the resulting
    * `LogicalRDD` inherits the *estimated* statistics of the original
    * plan; in a peeling loop those estimates compound exponentially
    * round over round until Catalyst's size-in-bytes arithmetic grinds on
    * million-digit BigIntegers. Re-wrapping the checkpointed RDD resets
    * the stats to defaults, keeping every round's planning O(plan size).
    */
  def refreshed(df: DataFrame): DataFrame = {
    val cp = df.localCheckpoint(true)
    cp.sparkSession.createDataFrame(cp.rdd, cp.schema)
  }

  /** [[AttributedGraph.toLocal]]: one job over the union of both sides'
    * rows, one block per partition (vertex partitions first, as the union
    * orders them). A block is a status byte (0, or 1 + the index of the
    * first of the two columns found null), the row count, and per row the
    * zigzag varint gaps of both columns from the previous row's values.
    */
  private def collectLocal(vertices: DataFrame, edges: DataFrame): LocalGraph = {
    val (vRows, Seq(id, at)) = rowsOf(vertices, "vertices", "id" -> LongType, "attr" -> IntegerType)
    val (eRows, Seq(src, dst)) = rowsOf(edges, "edges", "src" -> LongType, "dst" -> LongType)
    val blocks = vRows.sparkContext.union(
      vRows.mapPartitions(rows => Iterator(encode(rows, id, at, intSecond = true))),
      eRows.mapPartitions(rows => Iterator(encode(rows, src, dst, intSecond = false)))).collect()
    val (vBlocks, eBlocks) = blocks.splitAt(vRows.getNumPartitions)
    val (vIds, vAttrs) = decode(vBlocks, "vertices", "id", "attr")
    val (us, vs) = decode(eBlocks, "edges", "src", "dst")

    val ids = vIds.clone()
    Arrays.sort(ids)
    for (i <- 1 until ids.length if ids(i) == ids(i - 1))
      throw new IllegalArgumentException(s"duplicate vertex id ${ids(i)}")
    val attr = new Array[Int](ids.length)
    for (i <- vIds.indices) {
      if (vAttrs(i) != 0 && vAttrs(i) != 1) throw new IllegalArgumentException(
        s"vertex ${vIds(i)} has attribute ${vAttrs(i)}; attributes must be 0 or 1")
      attr(Arrays.binarySearch(ids, vIds(i))) = vAttrs(i).toInt
    }
    val keys = new Array[Long](us.length)
    for (e <- us.indices) {
      val u = Arrays.binarySearch(ids, us(e))
      val v = Arrays.binarySearch(ids, vs(e))
      if (u < 0 || v < 0) throw new IllegalArgumentException(
        s"edge (${us(e)}, ${vs(e)}) has an endpoint without a vertex row")
      keys(e) = LocalGraph.pack(u, v)
    }
    LocalGraph.fromPacked(ids, attr, keys, keys.length)
  }

  /** `df`'s rows, and the positions in them of `columns` found by name
    * in its schema, after checking their types. The rows come from the
    * Dataset's own physical plan, planned once per Dataset.
    */
  private def rowsOf(df: DataFrame, side: String,
                     columns: (String, DataType)*): (RDD[InternalRow], Seq[Int]) = {
    val pos = columns.map { case (name, want) =>
      val i = df.schema.fieldNames.indexOf(name)
      if (i < 0) throw new IllegalArgumentException(s"$side have no column '$name'")
      val got = df.schema(i).dataType
      if (got != want) throw new IllegalArgumentException(
        s"$side column '$name' must be ${want.typeName}, got ${got.typeName}")
      i
    }
    (df.queryExecution.toRdd, pos)
  }

  /** The block of one partition: columns `first` (long) and `second` (int
    * when `intSecond`, else long) of its rows.
    */
  private def encode(rows: Iterator[InternalRow], first: Int, second: Int,
                     intSecond: Boolean): Array[Byte] = {
    val body = new ByteArrayOutputStream()
    var count = 0
    var (x0, y0) = (0L, 0L)
    while (rows.hasNext) {
      val r = rows.next()
      if (r.isNullAt(first)) return Array[Byte](1)
      if (r.isNullAt(second)) return Array[Byte](2)
      val x = r.getLong(first)
      val y = if (intSecond) r.getInt(second).toLong else r.getLong(second)
      writeVarint(body, zigzag(x - x0))
      writeVarint(body, zigzag(y - y0))
      x0 = x
      y0 = y
      count += 1
    }
    val out = new ByteArrayOutputStream(body.size + 6)
    out.write(0)
    writeVarint(out, count)
    body.writeTo(out)
    out.toByteArray
  }

  /** Both columns of `blocks`' rows, in block order; a block holding a
    * null is rejected with the name of its column.
    */
  private def decode(blocks: Array[Array[Byte]], side: String,
                     names: String*): (Array[Long], Array[Long]) = {
    blocks.foreach { b =>
      if (b(0) != 0) throw new IllegalArgumentException(
        s"$side column '${names(b(0) - 1)}' holds a null")
    }
    val readers = blocks.map(b => new VarintReader(b))
    val counts = readers.map(_.next().toInt)
    val (xs, ys) = (new Array[Long](counts.sum), new Array[Long](counts.sum))
    var i = 0
    readers.zip(counts).foreach { case (in, count) =>
      var (x, y) = (0L, 0L)
      for (_ <- 0 until count) {
        x += unzigzag(in.next())
        y += unzigzag(in.next())
        xs(i) = x
        ys(i) = y
        i += 1
      }
    }
    (xs, ys)
  }

  private def zigzag(x: Long): Long = (x << 1) ^ (x >> 63)

  private def unzigzag(z: Long): Long = (z >>> 1) ^ -(z & 1)

  /** Unsigned LEB128. */
  private def writeVarint(out: ByteArrayOutputStream, x: Long): Unit = {
    var v = x
    while ((v & ~0x7FL) != 0) { out.write(((v & 0x7F) | 0x80).toInt); v >>>= 7 }
    out.write(v.toInt)
  }

  /** Reads the varints of a block after its status byte. */
  private final class VarintReader(b: Array[Byte]) {
    private var pos = 1

    def next(): Long = {
      var v = 0L
      var shift = 0
      var byte = 0
      while ({ byte = b(pos); pos += 1; v |= (byte & 0x7FL) << shift; shift += 7; byte < 0 }) ()
      v
    }
  }

  /** Build from raw edge and vertex DataFrames: canonicalizes edge
    * direction, drops self-loops and duplicate edges.
    */
  def apply(vertices: DataFrame, rawEdges: DataFrame, canonicalize: Boolean): AttributedGraph = {
    if (!canonicalize) AttributedGraph(vertices, rawEdges)
    else {
      val e = rawEdges
        .select(
          least(col("src"), col("dst")).as("src"),
          greatest(col("src"), col("dst")).as("dst"))
        .where(col("src") =!= col("dst"))
        .distinct()
      AttributedGraph(vertices.select("id", "attr"), e)
    }
  }

  /** Lift a [[LocalGraph]] back into DataFrames (for tests and oracles). */
  def fromLocal(spark: SparkSession, g: LocalGraph): AttributedGraph = {
    import spark.implicits._
    val vs = (0 until g.n).map(i => (g.ids(i), g.attr(i))).toDF("id", "attr")
    val es = g.edgeList.map { case (u, v) => (g.ids(u), g.ids(v)) }.toSeq
    val edf =
      if (es.isEmpty) Seq.empty[(Long, Long)].toDF("src", "dst")
      else es.map { case (u, v) => (math.min(u, v), math.max(u, v)) }.toDF("src", "dst")
    AttributedGraph(vs, edf)
  }
}
