package repro.graph

import scala.collection.mutable

/** Compact, immutable, driver/executor-side attributed graph.
  *
  * Vertices are dense internal indices `0 until n`; `ids(i)` maps back to
  * the external vertex id and `attr(i)` is the binary attribute
  * (0 = attribute "a", 1 = attribute "b"). Adjacency lists are sorted so
  * membership tests and intersections are `O(log d)` / `O(d1 + d2)`.
  *
  * The driver-side reductions, the branch-and-bound search, the upper
  * bounds and the heuristics all operate on this representation: the
  * reduction cascade returns the reduced graph as one `LocalGraph`, and
  * the search splits it into connected components on the driver.
  */
final class LocalGraph(
    val ids: Array[Long],
    val attr: Array[Int],
    val adj: Array[Array[Int]]
) extends Serializable {

  /** Number of vertices. */
  def n: Int = ids.length

  /** Number of undirected edges. */
  val m: Long = adj.iterator.map(_.length.toLong).sum / 2

  /** Degree of internal vertex `i`. */
  def degree(i: Int): Int = adj(i).length

  /** Maximum degree, 0 on the empty graph. */
  def maxDegree: Int = if (n == 0) 0 else adj.iterator.map(_.length).max

  /** Whether internal vertices `u` and `v` are adjacent (binary search). */
  def hasEdge(u: Int, v: Int): Boolean =
    java.util.Arrays.binarySearch(adj(u), v) >= 0

  /** Sorted intersection of `vs` (sorted) with the neighbours of `u`. */
  def intersectNeighbors(u: Int, vs: Array[Int]): Array[Int] = {
    val a = adj(u)
    val out = mutable.ArrayBuilder.make[Int]
    var i = 0; var j = 0
    while (i < a.length && j < vs.length) {
      if (a(i) == vs(j)) { out += a(i); i += 1; j += 1 }
      else if (a(i) < vs(j)) i += 1
      else j += 1
    }
    out.result()
  }

  /** Undirected edge list with `src < dst` in internal indices. */
  def edgeList: Array[(Int, Int)] = {
    val out = mutable.ArrayBuilder.make[(Int, Int)]
    var u = 0
    while (u < n) {
      adj(u).foreach(v => if (u < v) out += ((u, v)))
      u += 1
    }
    out.result()
  }

  /** Subgraph induced by the distinct internal vertices in `keep`,
    * re-indexed in ascending order of their internal index.
    */
  def inducedSubgraph(keep: Array[Int]): LocalGraph = {
    val sortedKeep = keep.sorted
    require((1 until sortedKeep.length).forall(i => sortedKeep(i - 1) != sortedKeep(i)),
      "inducedSubgraph: keep repeats a vertex")
    induced(sortedKeep, v => java.util.Arrays.binarySearch(sortedKeep, v))
  }

  /** [[inducedSubgraph]] of the distinct, ascending `sortedKeep`, re-indexed
    * through `pos`: scratch of length `n` that must hold -1 everywhere and
    * does again on return. O(sum of kept degrees), for callers that build
    * many small subgraphs of one graph.
    */
  def inducedSubgraph(sortedKeep: Array[Int], pos: Array[Int]): LocalGraph = {
    var i = 0
    while (i < sortedKeep.length) { pos(sortedKeep(i)) = i; i += 1 }
    val sub = induced(sortedKeep, v => pos(v))
    i = 0
    while (i < sortedKeep.length) { pos(sortedKeep(i)) = -1; i += 1 }
    sub
  }

  // `index(v)` is v's new index, negative for vertices left out; it
  // increases with v, so the new adjacency lists stay sorted
  private def induced(sortedKeep: Array[Int], index: Int => Int): LocalGraph = {
    val newAdj = new Array[Array[Int]](sortedKeep.length)
    var i = 0
    var maxDeg = 0
    while (i < sortedKeep.length) { maxDeg = math.max(maxDeg, degree(sortedKeep(i))); i += 1 }
    val buf = new Array[Int](maxDeg)
    i = 0
    while (i < sortedKeep.length) {
      val nb = adj(sortedKeep(i))
      var len = 0
      var j = 0
      while (j < nb.length) {
        val t = index(nb(j))
        if (t >= 0) { buf(len) = t; len += 1 }
        j += 1
      }
      newAdj(i) = java.util.Arrays.copyOf(buf, len)
      i += 1
    }
    new LocalGraph(sortedKeep.map(ids), sortedKeep.map(attr), newAdj)
  }

  /** Whether the internal vertex set `vs` forms a clique. */
  def isClique(vs: Iterable[Int]): Boolean = {
    val arr = vs.toArray.sorted
    arr.indices.forall { i =>
      (i + 1 until arr.length).forall(j => hasEdge(arr(i), arr(j)))
    }
  }

  /** Maximal k-core: the subgraph vertices with core number >= k. */
  def kCoreVertices(k: Int): Array[Int] = {
    val deg = Array.tabulate(n)(degree)
    val removed = new Array[Boolean](n)
    val queue = mutable.Queue.empty[Int]
    (0 until n).foreach(v => if (deg(v) < k) { queue += v; removed(v) = true })
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      adj(v).foreach { w =>
        if (!removed(w)) {
          deg(w) -= 1
          if (deg(w) < k) { removed(w) = true; queue += w }
        }
      }
    }
    (0 until n).filter(!removed(_)).toArray
  }

  /** Core numbers of all vertices (bucket peeling, O(n + m)). */
  def coreNumbers: Array[Int] = {
    if (n == 0) return Array.empty
    val deg = Array.tabulate(n)(degree)
    val core = new Array[Int](n)
    val order = (0 until n).sortBy(deg).toArray
    val pos = new Array[Int](n)
    order.zipWithIndex.foreach { case (v, i) => pos(v) = i }
    // bucket starts per degree value
    val maxDeg = deg.max
    val bin = new Array[Int](maxDeg + 2)
    deg.foreach(d => bin(d + 1) += 1)
    (1 to maxDeg + 1).foreach(d => bin(d) += bin(d - 1))
    val start = bin.clone()
    var i = 0
    val curDeg = deg.clone()
    while (i < n) {
      val v = order(i)
      core(v) = curDeg(v)
      adj(v).foreach { w =>
        if (curDeg(w) > curDeg(v)) {
          // swap w toward the front of its bucket, then shrink its degree
          val dw = curDeg(w)
          val pw = pos(w)
          val ps = start(dw)
          val u = order(ps)
          if (u != w) {
            order(ps) = w; order(pw) = u
            pos(w) = ps; pos(u) = pw
          }
          start(dw) += 1
          curDeg(w) -= 1
        }
      }
      i += 1
    }
    core
  }

  /** Degeneracy = maximum core number (0 on the empty graph). */
  def degeneracy: Int = if (n == 0) 0 else coreNumbers.max

  /** h-index of the degree sequence: max h with h vertices of degree >= h. */
  def hIndex: Int = LocalGraph.hIndexOf(Array.tabulate(n)(degree))

  /** Connected components as ascending arrays of internal vertices, in
    * order of their smallest vertex.
    */
  def connectedComponents: Seq[Array[Int]] = {
    // label(v): v's component, -1 until reached; each vertex is pushed once
    val label = Array.fill(n)(-1)
    val stack = new Array[Int](n)
    val sizes = new Array[Int](n)
    var comps = 0
    var s = 0
    while (s < n) {
      if (label(s) < 0) {
        label(s) = comps
        stack(0) = s
        var top = 1
        while (top > 0) {
          top -= 1
          val nb = adj(stack(top))
          sizes(comps) += 1
          var j = 0
          while (j < nb.length) {
            val w = nb(j)
            if (label(w) < 0) { label(w) = comps; stack(top) = w; top += 1 }
            j += 1
          }
        }
        comps += 1
      }
      s += 1
    }
    // filling in vertex order keeps every component ascending
    val out = Array.tabulate(comps)(c => new Array[Int](sizes(c)))
    val fill = new Array[Int](comps)
    var v = 0
    while (v < n) {
      val c = label(v)
      out(c)(fill(c)) = v
      fill(c) += 1
      v += 1
    }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }

  /** All maximal cliques (Bron–Kerbosch with pivoting), internal indices.
    * Intended for small graphs (test oracles, reduced components).
    */
  def maximalCliques(): Seq[Array[Int]] = {
    val out = mutable.ArrayBuffer.empty[Array[Int]]
    def bk(r: List[Int], p0: Array[Int], x0: Array[Int]): Unit = {
      if (p0.isEmpty && x0.isEmpty) { out += r.toArray.sorted; return }
      // pivot: vertex of P ∪ X with most neighbours in P
      val pivot = (p0 ++ x0).maxBy(u => intersectNeighbors(u, p0).length)
      val pivotNbrs = adj(pivot)
      var p = p0
      var x = x0
      p0.foreach { v =>
        if (java.util.Arrays.binarySearch(pivotNbrs, v) < 0) {
          bk(v :: r, intersectNeighbors(v, p), intersectNeighbors(v, x))
          p = p.filter(_ != v)
          x = (x :+ v).sorted
        }
      }
    }
    bk(Nil, (0 until n).toArray, Array.empty)
    out.toSeq
  }

  override def toString: String = s"LocalGraph(n=$n, m=$m)"
}

object LocalGraph {

  /** Build from an external-id edge list plus attribute map.
    * Self-loops are dropped; duplicate edges are merged. Vertices present
    * only in `attrs` (isolated) are kept; vertices present only in `edges`
    * get attribute 0.
    */
  def fromEdges(edges: Iterable[(Long, Long)], attrs: Map[Long, Int]): LocalGraph = {
    val m = edges.size
    val all = new Array[Long](attrs.size + 2 * m)
    var len = 0
    attrs.keysIterator.foreach { id => all(len) = id; len += 1 }
    edges.foreach { case (u, v) => all(len) = u; all(len + 1) = v; len += 2 }
    java.util.Arrays.sort(all)
    var n = 0
    for (id <- all if n == 0 || id != all(n - 1)) { all(n) = id; n += 1 }
    val ids = java.util.Arrays.copyOf(all, n)
    val keys = new Array[Long](m)
    var i = 0
    edges.foreach { case (u, v) =>
      keys(i) = pack(java.util.Arrays.binarySearch(ids, u), java.util.Arrays.binarySearch(ids, v))
      i += 1
    }
    fromPacked(ids, ids.map(id => attrs.getOrElse(id, 0)), keys, m)
  }

  /** `u` and `v` as one edge key for [[fromPacked]]. */
  private[graph] def pack(u: Int, v: Int): Long = (u.toLong << 32) | v

  /** The graph on `ids` (ascending, distinct) with attributes `attr` and
    * the edges `keys(0 until m)`: internal index pairs as [[pack]]ed, in
    * either direction. Self-loops are dropped and duplicates merged;
    * `keys` is overwritten. O(m log m) primitive sorting.
    */
  private[graph] def fromPacked(ids: Array[Long], attr: Array[Int], keys: Array[Long],
                                m: Int): LocalGraph = {
    val n = ids.length
    var len = 0
    var i = 0
    while (i < m) {
      val u = (keys(i) >>> 32).toInt
      val v = keys(i).toInt
      if (u != v) { keys(len) = pack(math.min(u, v), math.max(u, v)); len += 1 }
      i += 1
    }
    java.util.Arrays.sort(keys, 0, len)
    val deg = new Array[Int](n)
    var e = 0
    i = 0
    while (i < len) {
      if (i == 0 || keys(i) != keys(i - 1)) {
        keys(e) = keys(i); e += 1
        deg((keys(i) >>> 32).toInt) += 1
        deg(keys(i).toInt) += 1
      }
      i += 1
    }
    // keys ascend by (u, v), so every list fills in ascending order: v's
    // smaller neighbours u arrive before the keys that start at v
    val adj = Array.tabulate(n)(u => new Array[Int](deg(u)))
    java.util.Arrays.fill(deg, 0)
    i = 0
    while (i < e) {
      val u = (keys(i) >>> 32).toInt
      val v = keys(i).toInt
      adj(u)(deg(u)) = v; deg(u) += 1
      adj(v)(deg(v)) = u; deg(v) += 1
      i += 1
    }
    new LocalGraph(ids, attr, adj)
  }

  /** max h such that at least h entries of `values` are >= h. */
  def hIndexOf(values: Array[Int]): Int = {
    val nn = values.length
    if (nn == 0) return 0
    val cnt = new Array[Int](nn + 1)
    values.foreach(v => cnt(math.min(v, nn)) += 1)
    var total = 0
    var h = nn
    while (h >= 0) {
      total += cnt(h)
      if (total >= h) return h
      h -= 1
    }
    0
  }
}
