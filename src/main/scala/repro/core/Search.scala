package repro.core

import repro.graph.{Coloring, LocalGraph}

import java.util.concurrent.{ExecutionException, FutureTask, LinkedBlockingQueue,
  ThreadPoolExecutor, TimeUnit}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import scala.collection.mutable

/** The maximum fair clique branch-and-bound (Algorithms 2–3).
  *
  * [[maxRFC]] is a *complete* ordered branch-and-bound: root branches
  * follow the colorful-core peel order (CalColorOD); within a branch every
  * clique is visited exactly once via the increasing-order discipline, and
  * every visited `R` is tested against the fairness predicate (so
  * non-maximal optima inside larger unfair cliques are found). Pruning:
  *   - `ub_s`: `|R| + |C| <= |R*|` or `< 2k` (lines 19–20 of Algorithm 3);
  *   - per-attribute counts: `cnt_R(x) + cnt_C(x) < k` (lines 21–23);
  *   - the configured upper bounds of Section IV at top-level branches
  *     ("when selecting vertices to be added to R for the first time").
  * Optionally an ego-network greedy pass on the peel order ([[EgoSeed]],
  * not in the paper) seeds `R*` before each component's search.
  *
  * The paper-literal Algorithm 3 with forced attribute alternation is
  * incomplete as printed (DESIGN.md §5.1); it lives in test scope
  * (`SearchReference.alternatingMaxRFC`), tested for soundness only.
  */
object Search {

  /** Search outcome: optimum clique (internal ids of `g`), counters,
    * whether a node budget cut the search short (benches report such runs
    * as "INF", like the paper's 12-hour timeout), and the size of the
    * largest seed clique the incumbent held: `initialBest` or a clique of
    * the ego seed pass.
    */
  final case class Result(clique: Array[Int], nodes: Long, prunedByBound: Long,
                          truncated: Boolean, seedSize: Int) {
    def size: Int = clique.length
  }

  /** Complete maximum fair clique search over `g`.
    *
    * Components are searched one after another. Within a component,
    * `parallelism` workers (the calling thread and helper threads) claim
    * root branches in peel order and prune against one incumbent that
    * they all read live, so a large clique found at a late root prunes an
    * expensive earlier root that is still running (McCreesh & Prosser,
    * "Multi-threading a state-of-the-art maximum clique algorithm", 2013;
    * the root-branch split is that of Chang, KDD 2019).
    *
    * The clique does not depend on thread timing: a root may only tie the
    * incumbent when the incumbent was found at a later root, so the search
    * returns the first optimum in (component, peel) order, the one the
    * one-thread search returns. Node and prune counts are those of the
    * one-thread search at `parallelism` 1 only.
    *
    * @param initialBest a known fair clique (e.g. from HeurRFC) used to
    *                    seed `R*` at order 0; must be fair in `g`. It is
    *                    evaluated once, before any component is searched.
    *                    At `parallelism` 1 that happens on the calling
    *                    thread first. Otherwise it runs as a task on a
    *                    helper thread, so it must be safe to run there,
    *                    while the calling thread splits `g` into components
    *                    and builds the peel order of the first one with at
    *                    least `2k` vertices; if no helper has started the
    *                    task by then, the calling thread runs it itself.
    *                    A component the seed leaves too small is not
    *                    searched, even if its order was built. If it
    *                    throws, `maxRFC` throws that exception and
    *                    searches nothing.
    * @param nodeLimit   abort after this many search nodes in a component,
    *                    counted over all its workers; the result is then a
    *                    lower bound flagged truncated.
    * @param parallelism threads searching each component; 1 searches on the
    *                    calling thread only.
    * @param egoSeed     before the workers of a component start, run the
    *                    ego seed pass ([[EgoSeed]]) on its peel order and
    *                    seed the incumbent with any larger fair clique it
    *                    finds. The pass is sequential, so the clique stays
    *                    independent of `parallelism`; with it off, node and
    *                    prune counts are those of the unseeded search.
    */
  def maxRFC(g: LocalGraph, k: Int, delta: Int,
             bounds: Bounds.BoundConfig = Bounds.BoundConfig.none,
             initialBest: => Array[Int] = Array.empty,
             nodeLimit: Long = Long.MaxValue,
             parallelism: Int = 1,
             egoSeed: Boolean = false): Result = {
    require(parallelism >= 1, s"parallelism must be at least 1, got $parallelism")
    val (seed, comps, ahead) =
      if (parallelism == 1) (initialBest, g.connectedComponents, None)
      else seedBesideFirstOrder(g, k, initialBest)
    val best = new Incumbent(seed, seed.length)
    var seedSize = seed.length
    var nodes = 0L
    var prunedByBound = 0L
    var truncated = false
    eachComponent(g, comps, k, best, ahead) { (po, comp, firstOrder) =>
      if (egoSeed) seedSize = math.max(seedSize, new EgoSeed(po, comp, k, delta).run(best))
      val search = new ComponentSearch(po, comp, k, delta, bounds, nodeLimit, best, firstOrder)
      search.run(parallelism)
      nodes += search.nodes
      prunedByBound += search.prunedByBound
      truncated = search.stopped
      !truncated
    }
    Result(best.clique, nodes, prunedByBound, truncated, seedSize)
  }

  /** The ego seed pass alone: the largest fair clique (internal ids of
    * `g`) that [[EgoSeed]] finds over the components of `g`, or empty.
    */
  def egoClique(g: LocalGraph, k: Int, delta: Int): Array[Int] = {
    val best = new Incumbent(Array.empty, 0)
    eachComponent(g, g.connectedComponents, k, best) { (po, comp, _) =>
      new EgoSeed(po, comp, k, delta).run(best)
      true
    }
    best.clique
  }

  /** Evaluates `seed` as a task on [[pool]] while the calling thread
    * splits `g` into components and builds the peel order of the first
    * one with at least `2k` vertices, numbered in `g.connectedComponents`.
    * The caller then runs the task itself unless a helper has started it,
    * so it never waits on a queued task. Returns the seed, the components
    * and that peel order, if any; an exception of `seed` is rethrown as is.
    */
  private def seedBesideFirstOrder(g: LocalGraph, k: Int, seed: => Array[Int])
      : (Array[Int], Seq[Array[Int]], Option[(Int, PeelOrder)]) = {
    val task = new FutureTask[Array[Int]](() => seed)
    pool.execute(task)
    val comps = g.connectedComponents
    val first = comps.indexWhere(_.length >= 2 * k)
    val ahead =
      if (first < 0) None else Some((first, peelOrderOf(g, comps(first), Array.fill(g.n)(-1))))
    // does nothing if a helper has started the task
    task.run()
    val clique = try task.get() catch { case e: ExecutionException => throw e.getCause }
    (clique, comps, ahead)
  }

  /** The peel order of component `comp` of `g`; `pos` is scratch for
    * `g.inducedSubgraph`, which needs `comp` ascending, as
    * `connectedComponents` lists it.
    */
  private def peelOrderOf(g: LocalGraph, comp: Array[Int], pos: => Array[Int]): PeelOrder =
    // a component holding every vertex is g itself, and comp(v) == v
    new PeelOrder(if (comp.length == g.n) g else g.inducedSubgraph(comp, pos))

  /** Calls `visit(peel order, ids in g, order of its first root)` on each
    * component of `g` in `comps` (`g.connectedComponents`) in turn that is
    * large enough, when reached, to hold a fair clique beating `best`,
    * until `visit` returns false. `ahead` is a component's index and its
    * peel order, built before `best` was seeded. Roots are numbered in
    * search order across components from 1; a seed clique has order 0.
    */
  private def eachComponent(g: LocalGraph, comps: Seq[Array[Int]], k: Int, best: Incumbent,
                            ahead: Option[(Int, PeelOrder)] = None)
                           (visit: (PeelOrder, Array[Int], Int) => Boolean): Unit = {
    var firstOrder = 1
    var going = true
    var i = 0
    // shared by the component copies
    lazy val pos = Array.fill(g.n)(-1)
    while (i < comps.length && going) {
      val comp = comps(i)
      if (comp.length >= math.max(2 * k, best.size + 1)) {
        val po = ahead.collect { case (j, built) if j == i => built }
        going = visit(po.getOrElse(peelOrderOf(g, comp, pos)), comp, firstOrder)
      }
      firstOrder += comp.length
      i += 1
    }
  }

  /** Search one connected component `sub` on the calling thread, starting
    * from an incumbent of size `globalBest`; the clique (internal ids of
    * `sub`) is empty unless the search beat it.
    */
  private[core] def searchComponent(sub: LocalGraph, k: Int, delta: Int,
                                    bounds: Bounds.BoundConfig,
                                    globalBest: Int,
                                    nodeLimit: Long = Long.MaxValue): Result = {
    val best = new Incumbent(Array.empty, globalBest)
    val search = new ComponentSearch(new PeelOrder(sub), Array.range(0, sub.n), k, delta,
      bounds, nodeLimit, best, 1)
    search.run(1)
    Result(if (best.size > globalBest) best.clique else Array.empty,
      search.nodes, search.prunedByBound, search.stopped, globalBest)
  }

  private def keyOf(size: Int, order: Int): Long = (size.toLong << 32) | (Int.MaxValue - order)

  /** The best fair clique found so far, shared by the workers of a search.
    * `key` packs its size and the order of the root that found it, so that
    * a greater key is a better incumbent: larger, or as large and found at
    * an earlier root.
    */
  private final class Incumbent(seed: Array[Int], seedSize: Int) {
    private val key = new AtomicLong(keyOf(seedSize, 0))
    private var best = seed // guarded by this

    def size: Int = (key.get >>> 32).toInt

    def clique: Array[Int] = synchronized(best)

    /** The size a clique found at root `order` must exceed to replace the
      * incumbent: the incumbent's size, less one if it was found at a later
      * root (the tie rule).
      */
    def bar(order: Int): Int = {
      val cur = key.get
      val size = (cur >>> 32).toInt
      if (keyOf(size, order) > cur) size - 1 else size
    }

    def offer(size: Int, order: Int, found: => Array[Int]): Unit = synchronized {
      val offered = keyOf(size, order)
      if (offered > key.get) { best = found; key.set(offered) }
    }
  }

  /** The colorful-core peel order of a component `sub` and, for every
    * rank `r`, the ranks of the later neighbours of `peel(r)` in ascending
    * order: root `r`'s candidates. Read-only once built.
    */
  private[core] final class PeelOrder(val sub: LocalGraph) {
    val n: Int = sub.n
    val peel: Array[Int] = ColorfulDegrees.colorfulCorePeelOrder(sub, Coloring.greedyLocal(sub))
    val rank: Array[Int] = new Array[Int](n)
    /** attribute of `peel(r)` */
    val attr: Array[Int] = new Array[Int](n)
    val later: Array[Array[Int]] = new Array[Array[Int]](n)

    locally {
      var r = 0
      while (r < n) { rank(peel(r)) = r; attr(r) = sub.attr(peel(r)); r += 1 }
      val fill = new Array[Int](n)
      var v = 0
      while (v < n) {
        val nb = sub.adj(v)
        var j = 0
        while (j < nb.length) { if (rank(nb(j)) > rank(v)) fill(rank(v)) += 1; j += 1 }
        v += 1
      }
      r = 0
      while (r < n) { later(r) = new Array[Int](fill(r)); fill(r) = 0; r += 1 }
      // visiting ranks in ascending order keeps every list sorted
      r = 0
      while (r < n) {
        val nb = sub.adj(peel(r))
        var j = 0
        while (j < nb.length) {
          val e = rank(nb(j))
          if (e < r) { later(e)(fill(e)) = r; fill(e) += 1 }
          j += 1
        }
        r += 1
      }
    }

    /** The subgraph of `sub` induced by `peel(r)` and its candidates, as
      * `sub.inducedSubgraph` builds it (ascending internal index, sorted
      * adjacency), read from the later-neighbour lists: each edge is found
      * once, from its earlier endpoint, instead of by scanning every kept
      * vertex's whole adjacency. `pos` is scratch of length `n` that holds
      * -1 everywhere, and does again on return.
      */
    def instance(r: Int, pos: Array[Int]): LocalGraph = {
      val cands = later(r)
      val size = cands.length + 1
      val keep = new Array[Int](size)
      keep(0) = peel(r)
      var i = 1
      while (i < size) { keep(i) = peel(cands(i - 1)); i += 1 }
      java.util.Arrays.sort(keep)
      i = 0
      while (i < size) { pos(rank(keep(i))) = i; i += 1 }
      // each vertex's neighbours, unsorted, in nb(start(i) until start(i + 1))
      val start = new Array[Int](size + 1)
      i = 0
      while (i < size) {
        val nb = later(rank(keep(i)))
        var j = 0
        while (j < nb.length) {
          val t = pos(nb(j))
          if (t >= 0) { start(i + 1) += 1; start(t + 1) += 1 }
          j += 1
        }
        i += 1
      }
      i = 0
      while (i < size) { start(i + 1) += start(i); i += 1 }
      val fill = java.util.Arrays.copyOf(start, size)
      val nb = new Array[Int](start(size))
      i = 0
      while (i < size) {
        val ln = later(rank(keep(i)))
        var j = 0
        while (j < ln.length) {
          val t = pos(ln(j))
          if (t >= 0) {
            nb(fill(i)) = t; fill(i) += 1
            nb(fill(t)) = i; fill(t) += 1
          }
          j += 1
        }
        i += 1
      }
      i = 0
      while (i < size) { pos(rank(keep(i))) = -1; i += 1 }
      // listing each i as a neighbour of its neighbours, i ascending, sorts
      // every list
      val adj = Array.tabulate(size)(t => new Array[Int](start(t + 1) - start(t)))
      val len = new Array[Int](size)
      i = 0
      while (i < size) {
        var e = start(i)
        while (e < start(i + 1)) { val t = nb(e); adj(t)(len(t)) = i; len(t) += 1; e += 1 }
        i += 1
      }
      new LocalGraph(keep.map(sub.ids), keep.map(sub.attr), adj)
    }
  }

  /** The ego seed pass over one component: the ego-network heuristic of
    * Chang ("Efficient maximum clique computation over large sparse
    * graphs", KDD 2019) on the search's own peel order. Ranks are visited
    * from last to first; a root whose ego network (itself and its later
    * neighbours) could still hold a fair clique larger than the incumbent
    * gets one greedy descent of Algorithm 5 inside that ego network, and a
    * fair clique it finds that beats the incumbent is offered at order 0.
    *
    * The descent starts at the root and alternates attributes, taking the
    * candidate of the forced attribute with the highest degree in the ego
    * network (the earliest in peel order on ties). Once no candidate of the
    * forced attribute is left, neither attribute may exceed that
    * attribute's count in the clique plus δ. It gives up when the rest
    * cannot reach `k` per attribute, `2k` in all, or more than the
    * incumbent (Algorithm 5 lines 24–27). Candidate sets are
    * bitsets over the root's later neighbours with symmetric rows (`d²/8`
    * bytes), built from the later-neighbour lists into scratch reused
    * across roots. Not in the paper: DESIGN.md §5.8.
    */
  private final class EgoSeed(po: PeelOrder, toG: Array[Int], k: Int, delta: Int) {
    // scratch rank -> position map, -1 outside the ego network being built
    private val pos = Array.fill(po.n)(-1)
    private var words = 0
    // row p at rows(p * words): the candidates adjacent to candidate p
    private var rows = Array.empty[Long]
    private var deg = Array.empty[Int]
    private var maskA = Array.empty[Long]
    private var cur = Array.empty[Long]
    // positions the descent added to the root, in order
    private var picked = Array.empty[Int]

    /** Runs the pass against `best`; returns the size of the largest clique
      * it seeded, or 0.
      */
    def run(best: Incumbent): Int = {
      var seeded = 0
      var r = po.n - 1
      while (r >= 0) {
        val cands = po.later(r)
        if (1 + cands.length > best.size && 1 + cands.length >= 2 * k) {
          val size = descend(r, best.size)
          if (size > best.size) {
            best.offer(size, 0, Array.tabulate(size)(i =>
              toG(po.peel(if (i == 0) r else cands(picked(i - 1))))))
            seeded = size
          }
        }
        r -= 1
      }
      seeded
    }

    // the size of the fair clique the descent from root r finds, or 0 if it
    // finds none larger than `bar`
    private def descend(r: Int, bar: Int): Int = {
      val cands = po.later(r)
      val d = cands.length
      var rA = if (po.attr(r) == 0) 1 else 0
      var rB = 1 - rA
      var cSize = d
      var cA = 0
      var j = 0
      while (j < d) { if (po.attr(cands(j)) == 0) cA += 1; j += 1 }
      if (rA + cA < k || rB + cSize - cA < k) return 0
      // Lemma 6: no fair clique of this ego network is larger than ub_a
      if (Bounds.ubA(rA + cA, rB + cSize - cA, delta) <= bar) return 0
      build(cands)
      java.util.Arrays.fill(cur, 0, words, -1L)
      if ((d & 63) != 0) cur(words - 1) = (1L << d) - 1
      var rSize = 1
      var choose = 1 - po.attr(r)
      var cap = -1
      while (true) {
        if (cap == -1 && (if (choose == 0) cA else cSize - cA) == 0)
          cap = (if (choose == 0) rA else rB) + delta
        if (cap >= 0) {
          if (rA == cap && cA > 0) { keep(1); cSize -= cA; cA = 0 }
          if (rB == cap && cSize > cA) { keep(0); cSize = cA }
        }
        if (cSize == 0) return if (FairClique.isFair(rA, rB, k, delta)) rSize else 0
        if ((if (choose == 0) cA else cSize - cA) == 0) choose = 1 - choose
        else {
          val v = highestDegree(choose)
          picked(rSize - 1) = v
          rSize += 1
          if (choose == 0) rA += 1 else rB += 1
          choose = 1 - choose
          cSize = 0
          cA = 0
          var w = 0
          while (w < words) {
            val b = cur(w) & rows(v * words + w)
            cur(w) = b
            cSize += java.lang.Long.bitCount(b)
            cA += java.lang.Long.bitCount(b & maskA(w))
            w += 1
          }
          if (rSize + cSize < 2 * k || rSize + cSize <= bar) return 0
          if (rA + cA < k || rB + cSize - cA < k) return 0
        }
      }
      0
    }

    // drop the candidates whose attribute is not `attr`
    private def keep(attr: Int): Unit = {
      var w = 0
      while (w < words) {
        cur(w) &= (if (attr == 0) maskA(w) else ~maskA(w))
        w += 1
      }
    }

    // the candidate of attribute `attr` with the highest degree, the
    // earliest on ties
    private def highestDegree(attr: Int): Int = {
      var v = -1
      var w = 0
      while (w < words) {
        var bits = cur(w) & (if (attr == 0) maskA(w) else ~maskA(w))
        while (bits != 0) {
          val p = (w << 6) | java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          if (v < 0 || deg(p) > deg(v)) v = p
        }
        w += 1
      }
      v
    }

    // symmetric rows, degrees and attribute mask of the ego network of
    // candidates `cands`
    private def build(cands: Array[Int]): Unit = {
      val d = cands.length
      words = (d + 63) >>> 6
      val size = d * words
      if (rows.length < size) rows = new Array[Long](size)
      else java.util.Arrays.fill(rows, 0, size, 0L)
      if (maskA.length < words) { maskA = new Array[Long](words); cur = new Array[Long](words) }
      else java.util.Arrays.fill(maskA, 0, words, 0L)
      if (deg.length < d) { deg = new Array[Int](d); picked = new Array[Int](d) }
      var p = 0
      while (p < d) { pos(cands(p)) = p; p += 1 }
      p = 0
      while (p < d) {
        if (po.attr(cands(p)) == 0) maskA(p >> 6) |= 1L << p
        val nb = po.later(cands(p))
        var j = 0
        while (j < nb.length) {
          val q = pos(nb(j))
          if (q >= 0) {
            rows(p * words + (q >> 6)) |= 1L << q
            rows(q * words + (p >> 6)) |= 1L << p
          }
          j += 1
        }
        p += 1
      }
      p = 0
      while (p < d) {
        pos(cands(p)) = -1
        var c = 0
        var w = 0
        while (w < words) { c += java.lang.Long.bitCount(rows(p * words + w)); w += 1 }
        deg(p) = c
        p += 1
      }
    }
  }

  /** Helper threads of parallel searches, one per core, created on first
    * use. They are daemon threads, so a search never keeps the JVM alive,
    * and idle ones exit.
    */
  private[core] lazy val pool: ThreadPoolExecutor = {
    val threads = Runtime.getRuntime.availableProcessors
    val made = new AtomicInteger
    val p = new ThreadPoolExecutor(threads, threads, 30L, TimeUnit.SECONDS,
      new LinkedBlockingQueue[Runnable], (task: Runnable) => {
        val t = new Thread(task, s"maxrfc-helper-${made.incrementAndGet()}")
        t.setDaemon(true)
        t
      })
    p.allowCoreThreadTimeOut(true)
    p
  }

  /** The search of one component: its workers claim roots from `nextRoot`
    * and add the nodes they visit to `nodesSpent`, the budget count. The
    * incumbent holds ids `toG(v)` for vertices `v` of the component; root
    * `r` has order `firstOrder + r`.
    */
  private final class ComponentSearch(val peelOrder: PeelOrder, val toG: Array[Int], val k: Int,
                                      val delta: Int, val bounds: Bounds.BoundConfig,
                                      val nodeLimit: Long, val best: Incumbent,
                                      val firstOrder: Int) {
    val nextRoot = new AtomicInteger
    val nodesSpent = new AtomicLong
    /** set once the budget is spent or a worker failed: workers stop */
    @volatile var stopped = false

    // totals of the finished workers and the helper hand-off, guarded by this
    var nodes = 0L
    var prunedByBound = 0L
    private var active = 0
    private var closed = false
    private var failure: Throwable = null

    def run(parallelism: Int): Unit = {
      val helpers =
        if (parallelism == 1) 0
        else math.min(parallelism - 1, math.min(pool.getMaximumPoolSize, peelOrder.n - 1))
      var h = 0
      while (h < helpers) { pool.execute(() => help()); h += 1 }
      work()
      // helpers that have not started yet find `closed` and return at once,
      // so the caller waits only for running ones
      synchronized {
        closed = true
        try while (active > 0) wait()
        catch { case e: InterruptedException => stopped = true; throw e }
      }
      if (failure != null) throw failure
    }

    private def help(): Unit = {
      val joined = synchronized { if (!closed) active += 1; !closed }
      if (joined) {
        try work()
        finally synchronized { active -= 1; if (active == 0) notifyAll() }
      }
    }

    private def work(): Unit = {
      val w = new Worker(this)
      try w.run()
      catch {
        case t: Throwable =>
          stopped = true
          synchronized { if (failure == null) failure = t }
      }
      synchronized { nodes += w.nodes; prunedByBound += w.prunedByBound }
    }
  }

  /** Nodes a worker counts before adding them to its component's budget
    * count; at parallelism 1 the budget stays exact.
    */
  private val FlushEvery = 1024

  /** One thread's search of the roots it claims.
    *
    * Root `u`'s candidates are its later neighbours in peel order, indexed
    * `0 until d` by that order. The search runs on bitsets over these
    * positions (in the style of BBMC, San Segundo et al. 2011): row `p`
    * holds the later candidates adjacent to candidate `p`, so a child's
    * candidate set is one AND per word and its attribute counts are bit
    * counts. Rows are triangular (word `p >> 6` onwards), about `d²/16`
    * bytes, and are built only for roots that pass the node-entry prunes.
    * Set bits are walked in ascending position, i.e. in peel order, so
    * the tree, its prunes and the clique are those of the list-based
    * search (`SearchReference`, test scope). Every prune compares against
    * the incumbent's live [[Incumbent.bar]].
    */
  private final class Worker(c: ComponentSearch) {
    private val po = c.peelOrder
    private val k = c.k
    var nodes = 0L
    var prunedByBound = 0L
    private var unflushed = 0
    // c.nodesSpent as of this worker's last flush
    private var spent = 0L
    private var stopped = false

    // the current root's order and instance: candidate ranks by position,
    // bitset rows (row p at rows(rowStart(p)), words p >> 6 until `words`)
    // and the positions of attribute-a candidates
    private var rootOrder = 0
    private var cands = Array.empty[Int]
    private var words = 0
    private var rows = Array.empty[Long]
    private var rowStart = Array.empty[Int]
    private var maskA = Array.empty[Long]
    // scratch rank -> position map, -1 outside the instance being built
    private val pos = Array.fill(po.n)(-1)
    // sets(r): candidate set of the node whose R has r vertices
    private val sets = mutable.ArrayBuffer.empty[Array[Long]]
    // ranks of R's vertices
    private val rStack = new Array[Int](po.n)
    private var cntA = 0
    private var cntB = 0

    def run(): Unit = {
      while (!stopped) {
        if (c.stopped) stopped = true
        else {
          val r = c.nextRoot.getAndIncrement()
          if (r < po.n) root(r) else stopped = true
        }
      }
      c.nodesSpent.addAndGet(unflushed)
    }

    private def bar: Int = c.best.bar(rootOrder)

    private def setAt(r: Int): Array[Long] = {
      while (sets.length <= r) sets += new Array[Long](words)
      if (sets(r).length < words) sets(r) = new Array[Long](words)
      sets(r)
    }

    // count one node against the budget; false once it is spent
    private def count(): Boolean = {
      nodes += 1
      unflushed += 1
      if (spent + unflushed > c.nodeLimit) { stopped = true; c.stopped = true; return false }
      if (unflushed == FlushEvery) {
        spent = c.nodesSpent.addAndGet(unflushed)
        unflushed = 0
        if (c.stopped) stopped = true
      }
      !stopped
    }

    // count the node, record a fair R, and tell whether it may branch
    private def enter(rSize: Int, cSize: Int, candA: Int): Boolean = {
      if (stopped || !count()) return false
      if (FairClique.isFair(cntA, cntB, k, c.delta) && rSize > bar)
        c.best.offer(rSize, rootOrder, Array.tabulate(rSize)(i => c.toG(po.peel(rStack(i)))))
      rSize + cSize > bar && rSize + cSize >= 2 * k &&
        cntA + candA >= k && cntB + (cSize - candA) >= k
    }

    // extend R (rSize vertices) by each candidate in sets(rSize), whose
    // set bits lie in words lo until `words`
    private def branch(rSize: Int, lo: Int, cSize: Int, candA: Int): Unit = {
      val cur = sets(rSize)
      val next = setAt(rSize + 1)
      var remA = candA
      var remB = cSize - candA
      var left = cSize
      var w = lo
      while (w < words) {
        var bits = cur(w)
        while (bits != 0) {
          val p = (w << 6) | java.lang.Long.numberOfTrailingZeros(bits)
          bits &= bits - 1
          // candidates after p in the set that are adjacent to p
          val row = rowStart(p) - w
          var nLo = words
          var nSize = 0
          var nA = 0
          var x = w
          while (x < words) {
            val b = cur(x) & rows(row + x)
            next(x) = b
            if (b != 0) {
              if (nLo == words) nLo = x
              nSize += java.lang.Long.bitCount(b)
              nA += java.lang.Long.bitCount(b & maskA(x))
            }
            x += 1
          }
          val isA = (maskA(w) & (1L << p)) != 0
          rStack(rSize) = cands(p)
          if (isA) cntA += 1 else cntB += 1
          if (enter(rSize + 1, nSize, nA)) branch(rSize + 1, nLo, nSize, nA)
          if (isA) { cntA -= 1; remA -= 1 } else { cntB -= 1; remB -= 1 }
          left -= 1
          // later iterations use only candidates after p: stop when even
          // taking all of them cannot beat the incumbent or reach k/2k
          if (stopped) return
          if (rSize + left <= bar) return
          if (rSize + left < 2 * k) return
          if (cntA + remA < k || cntB + remB < k) return
        }
        w += 1
      }
    }

    // rows, attribute mask and full candidate set of the current root
    private def buildRows(): Unit = {
      val d = cands.length
      words = (d + 63) >>> 6
      if (rowStart.length < d) rowStart = new Array[Int](d)
      var size = 0
      var p = 0
      while (p < d) { rowStart(p) = size; size += words - (p >> 6); p += 1 }
      if (rows.length < size) rows = new Array[Long](size)
      else java.util.Arrays.fill(rows, 0, size, 0L)
      if (maskA.length < words) maskA = new Array[Long](words)
      else java.util.Arrays.fill(maskA, 0, words, 0L)
      val full = setAt(1)
      java.util.Arrays.fill(full, 0, words, -1L)
      if ((d & 63) != 0) full(words - 1) = (1L << d) - 1
      p = 0
      while (p < d) { pos(cands(p)) = p; p += 1 }
      p = 0
      while (p < d) {
        val rp = cands(p)
        if (po.attr(rp) == 0) maskA(p >> 6) |= 1L << p
        val row = rowStart(p) - (p >> 6)
        // later neighbours of candidate p come after it, as positions do
        val nb = po.later(rp)
        var j = 0
        while (j < nb.length) {
          val q = pos(nb(j))
          if (q >= 0) rows(row + (q >> 6)) |= 1L << q
          j += 1
        }
        p += 1
      }
      p = 0
      while (p < d) { pos(cands(p)) = -1; p += 1 }
    }

    private def root(r: Int): Unit = {
      rootOrder = c.firstOrder + r
      cands = po.later(r)
      val d = cands.length
      if (1 + d >= 2 * k && 1 + d > bar) {
        rStack(0) = r
        cntA = if (po.attr(r) == 0) 1 else 0
        cntB = 1 - cntA
        var candA = 0
        var j = 0
        while (j < d) { if (po.attr(cands(j)) == 0) candA += 1; j += 1 }
        // evaluating a bound costs an induced subgraph + coloring; on tiny
        // instances the search itself is cheaper than the bound. Only the
        // prune decision matters, so the bounds run cheapest first, and
        // ub_a, which needs only the counts above, runs before the instance
        // is built
        if (c.bounds.any && d >= 32) {
          val floor = math.max(2 * k - 1, bar)
          if ((c.bounds.ad && Bounds.ubA(cntA + candA, cntB + d - candA, c.delta) <= floor) ||
              Bounds.evaluate(po.instance(r, pos), c.delta, c.bounds, floor) <= floor) {
            prunedByBound += 1
            return
          }
        }
        if (enter(1, d, candA)) {
          buildRows()
          branch(1, 0, d, candA)
        }
      }
    }
  }
}
