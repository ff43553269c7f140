package repro.graph

/** Degree-based greedy graph coloring (the paper colors every graph this
  * way before computing colorful degrees/supports): visit vertices in
  * (degree desc, id asc) order and give each the smallest color unused by
  * already-colored neighbours. It runs on the driver, on the collected
  * input (`Reductions.cascade`) and on each search instance.
  */
object Coloring {

  /** Sequential greedy coloring; returns colors indexed by internal id. */
  def greedyLocal(g: LocalGraph): Array[Int] = {
    val n = g.n
    val maxDeg = g.maxDegree
    // a vertex's rank is its place in (id, index) order; byRank maps a
    // rank back to its vertex
    val sortedIds = g.ids.clone()
    java.util.Arrays.sort(sortedIds)
    val taken = new Array[Int](n)
    val byRank = new Array[Int](n)
    // key (maxDeg - degree) * n + rank sorts vertices in (degree desc, id
    // asc) order, as one primitive Long per vertex
    val key = new Array[Long](n)
    var u = 0
    while (u < n) {
      val id = g.ids(u)
      // first place of id in sortedIds; equal ids rank in index order
      var lo = 0
      var hi = n
      while (lo < hi) { val mid = (lo + hi) >>> 1; if (sortedIds(mid) < id) lo = mid + 1 else hi = mid }
      val rank = lo + taken(lo)
      taken(lo) += 1
      byRank(rank) = u
      key(u) = (maxDeg - g.degree(u)).toLong * n + rank
      u += 1
    }
    java.util.Arrays.sort(key)
    val color = Array.fill(n)(-1)
    // used(c) == s marks color c as taken by a neighbour of the s-th vertex;
    // a vertex of degree d gets a color <= d, so larger ones never block
    val used = new Array[Int](maxDeg + 1)
    var s = 0
    while (s < n) {
      val v = byRank((key(s) % n).toInt)
      s += 1
      val nb = g.adj(v)
      var j = 0
      while (j < nb.length) {
        val c = color(nb(j))
        if (c >= 0 && c <= nb.length) used(c) = s
        j += 1
      }
      var c = 0
      while (used(c) == s) c += 1
      color(v) = c
    }
    color
  }

  /** Number of distinct colors used by `colors`. */
  def numColors(colors: Array[Int]): Int = if (colors.isEmpty) 0 else colors.distinct.length

  /** True iff no edge joins two same-colored vertices. */
  def isProper(g: LocalGraph, colors: Array[Int]): Boolean =
    (0 until g.n).forall(u => g.adj(u).forall(v => colors(u) != colors(v)))
}
