package repro.index

import repro.core.{QuantizedWordSpace, Series, Slab, TopK}

import scala.collection.mutable

/** A MESSI-style in-memory tree index (paper IV-A..IV-C), generic over the
  * word space — instantiated with iSAX it is the MESSI index, with SFA it is
  * SOFA's index.
  *
  * Structure (paper IV-B):
  *  - the *root* is a single node at cardinality 0 in every dimension (one
  *    subtree, not MESSI's hash of 1-bit words; see DESIGN.md §5);
  *  - *inner* nodes have two children obtained by raising the cardinality of
  *    one dimension by one bit;
  *  - *leaves* hold up to `leafCapacity` series; a node with more splits on
  *    the dimension whose next bit distributes its first `leafCapacity + 1`
  *    series (in input order) most evenly, the lowest such dimension on ties
  *    (the balanced-split heuristic of iSAX2.0/MESSI, evaluated on the series
  *    a leaf filled one insertion at a time holds when it overflows). A node
  *    whose every dimension is at full cardinality stays an overflow leaf.
  *
  * Query answering (paper IV-C) is the GEMINI exact algorithm: an approximate
  * descent seeds the best-so-far (BSF), then leaves are processed from a
  * priority queue ordered by node-level lower-bound distance; per-series
  * word-level LBDs (l lookups in a per-query table, `QuantizedWordSpace.lbTable`)
  * and early-abandoning real distances prune the rest. All distances are
  * squared internally; results are ordered by (distance, id).
  *
  * One instance indexes one Spark partition's series and is built in one
  * top-down pass inside `mapPartitions`. Series and ids are stored in a
  * `Slab` and words in one flat array, all in leaf order, and each leaf is a
  * slot range into them. The tree is immutable.
  *
  * Slot `e` holds row `e` of `slab` (the z-normalized series and its external
  * id) and its word as unsigned bytes `symbols(e * l until (e + 1) * l)`.
  * `root` is `None` only for an empty tree.
  */
final class TreeIndex private (
    val space: QuantizedWordSpace,
    val leafCapacity: Int,
    private[repro] val slab: Slab,
    symbols: Array[Byte],
    root: Option[TreeIndex.Node],
) extends Serializable {
  import TreeIndex._

  def size: Int = slab.rows

  // ---------------------------------------------------------------- querying

  /** The query's own leaf: the root descended by the query's word bits.
    * `None` only for an empty index.
    */
  private def approxLeaf(qp: Array[Double]): Option[Leaf] = {
    val qWord = space.quantize(qp)
    @annotation.tailrec
    def descend(node: Node): Leaf = node match {
      case inner: Inner =>
        val d = inner.splitDim
        descend(if (bitAt(space.maxBits, qWord(d), inner.bits(d)) == 0) inner.left else inner.right)
      case leaf: Leaf => leaf
    }
    root.map(descend)
  }

  /** Approximate search (paper IV-C first phase, which MESSI runs *once*
    * to seed a BSF shared by the parallel exact phase): exact distances to
    * the entries of the query's own leaf, top-k. `searchProjected` runs the
    * same phase itself; this standalone form is kept for `nnbench`, whose
    * replay merges approximate answers across trees into a shared BSF.
    */
  def approxSearch(qz: Array[Float], qp: Array[Double], k: Int): Array[(Long, Double)] =
    if (k <= 0) Array.empty
    else approxLeaf(qp).fold(Array.empty[(Long, Double)]) { leaf =>
      val top = new TopK(k)
      leaf.entries.foreach { e =>
        top.offer(Series.edSqEarlyAbandonAt(qz, slab.flat, e * space.n, Double.PositiveInfinity), slab.ids(e))
      }
      top.drain()
    }

  /** Search with the query already z-normalized and projected — the form used
    * by the distributed layer, which projects once on the driver.
    *
    * `initialBsfSq` is an optional, externally supplied upper bound on the
    * global k-th NN distance (MESSI's shared BSF from the approximate phase):
    * any series with a bound or distance above it cannot enter the global
    * top-k, so the local result may legitimately hold fewer than k entries.
    * The distributed layer passes none: each tree seeds its own BSF.
    *
    * A node, word or series is pruned only when its bound is strictly above
    * the BSF, so a series tied with the k-th distance still reaches the
    * top-k, which keeps the one with the smaller id.
    */
  def searchProjected(qz: Array[Float], qp: Array[Double], k: Int,
                      initialBsfSq: Double = Double.PositiveInfinity): Array[(Long, Double)] = {
    if (size == 0 || k <= 0) return Array.empty
    require(qz.length == space.n, s"query length ${qz.length} != series length ${space.n}")
    val top = new TopK(k)
    def bsfSq: Double = math.min(initialBsfSq, top.boundSq)
    val table = space.lbTable(qp)
    val n = space.n; val l = space.l
    val values = slab.flat; val ids = slab.ids
    def scanLeaf(leaf: Leaf): Unit = {
      var e = leaf.from
      while (e < leaf.until) {
        val bsf = bsfSq
        if (space.tableLbSq(table, symbols, e * l, bsf) <= bsf) {
          val dSq = Series.edSqEarlyAbandonAt(qz, values, e * n, bsf)
          if (dSq <= bsf) top.offer(dSq, ids(e))
        }
        e += 1
      }
    }

    // Phase 1 — approximate search: seed the BSF with real distances from the
    // query's own leaf (paper IV-C). That leaf is not scanned again below.
    val seededLeaf = approxLeaf(qp).orNull
    if (seededLeaf ne null) scanLeaf(seededLeaf)

    // Phase 2 — exact search: best-first traversal by node-level LBD.
    val pq = new java.util.PriorityQueue[(Double, Node)]((a: (Double, Node), b: (Double, Node)) => java.lang.Double.compare(a._1, b._1))
    def push(n: Node): Unit = {
      val lb = space.nodeLbSq(qp, n.prefix, n.bits)
      if (lb <= bsfSq) pq.add((lb, n))
    }
    root.foreach(push)
    while (!pq.isEmpty) {
      val (lb, node) = pq.poll()
      if (lb > bsfSq) pq.clear() // everything else has a larger LBD: done
      else node match {
        case inner: Inner => push(inner.left); push(inner.right)
        case leaf: Leaf => if (leaf ne seededLeaf) scanLeaf(leaf)
      }
    }
    top.drain()
  }

  // ------------------------------------------------------------- diagnostics

  /** (numLeaves, maxDepth, meanLeafFill) — Figure 8-style index properties. */
  def structureStats: (Int, Int, Double) = {
    var leaves = 0; var maxDepth = 0; var fill = 0L
    def walk(n: Node, depth: Int): Unit = n match {
      case i: Inner => walk(i.left, depth + 1); walk(i.right, depth + 1)
      case l: Leaf  => leaves += 1; maxDepth = math.max(maxDepth, depth); fill += l.entries.length
    }
    root.foreach(walk(_, 1))
    (leaves, maxDepth, if (leaves == 0) 0.0 else fill.toDouble / leaves)
  }

  /** All leaves — test hook for structural invariants. */
  def allLeaves: Seq[Leaf] = {
    val buf = mutable.ArrayBuffer.empty[Leaf]
    def walk(n: Node): Unit = n match {
      case i: Inner => walk(i.left); walk(i.right)
      case l: Leaf  => buf += l
    }
    root.foreach(walk)
    buf.toSeq
  }

  /** Word and external id of the series in slot `e` — test hooks. */
  def wordOf(e: Int): Array[Int] = Array.tabulate(space.l)(j => symbols(e * space.l + j) & 0xFF)
  def idOf(e: Int): Long = slab.ids(e)
}

object TreeIndex {

  sealed trait Node extends Serializable {
    def prefix: Array[Int]
    def bits: Array[Int]
  }
  final class Inner(val prefix: Array[Int], val bits: Array[Int], val splitDim: Int,
                    val left: Node, val right: Node) extends Node
  final class Leaf(val prefix: Array[Int], val bits: Array[Int],
                   private[index] val from: Int, private[index] val until: Int) extends Node {
    /** This leaf's slots. */
    def entries: Range = from until until
  }

  /** Bit of symbol `sym` at depth `depth` (0 = most significant of maxBits). */
  private def bitAt(maxBits: Int, sym: Int, depth: Int): Int =
    (sym >>> (maxBits - 1 - depth)) & 1

  /** Build an index over an iterator of (id, raw series) in one pass: read
    * and z-normalize every series, split nodes top-down over one array of
    * input indices, then pack the series into a `Slab` in leaf order. Used
    * from `mapPartitions`.
    */
  def build(space: QuantizedWordSpace, leafCapacity: Int,
            it: Iterator[(Long, Array[Float])]): TreeIndex = {
    require(leafCapacity >= 1, s"leafCapacity must be >= 1, got $leafCapacity")
    val n = space.n; val l = space.l; val maxBits = space.maxBits
    val inWords = mutable.ArrayBuilder.make[Byte] // l unsigned symbols per series
    val rows = it.map { case (id, raw) =>
      require(raw.length == n, s"series $id has length ${raw.length}, expected $n")
      val z = Series.znormFinite(id, raw)
      space.word(z).foreach(s => inWords += s.toByte)
      (id, z)
    }.toArray
    val total = rows.length
    val words = inWords.result()
    // order(from until until) holds a node's input indices in input order:
    // each split partitions its range stably in place, so every leaf ends as
    // one contiguous range and depth-first order is slot order.
    val order = Array.range(0, total)
    val ones = new Array[Int](total)
    def bit(e: Int, d: Int, bits: Array[Int]): Int = bitAt(maxBits, words(e * l + d) & 0xFF, bits(d))

    /** The split dimension of the node over `order(from until until)`, or -1
      * when every dimension is at full cardinality.
      */
    def splitDim(from: Int, bits: Array[Int]): Int = {
      val half = (leafCapacity + 1) / 2
      var bestDim = -1
      var bestImbalance = Int.MaxValue
      var d = 0
      while (d < l) {
        if (bits(d) < maxBits) {
          var cnt = 0
          var i = from
          while (i <= from + leafCapacity) { cnt += bit(order(i), d, bits); i += 1 }
          val imbalance = math.abs(cnt - half)
          if (imbalance < bestImbalance) { bestImbalance = imbalance; bestDim = d }
        }
        d += 1
      }
      bestDim
    }

    def node(from: Int, until: Int, prefix: Array[Int], bits: Array[Int]): Node = {
      val d = if (until - from > leafCapacity) splitDim(from, bits) else -1
      if (d < 0) new Leaf(prefix, bits, from, until)
      else {
        var zeros = from; var nOnes = 0
        var i = from
        while (i < until) {
          val e = order(i)
          if (bit(e, d, bits) == 0) { order(zeros) = e; zeros += 1 }
          else { ones(nOnes) = e; nOnes += 1 }
          i += 1
        }
        System.arraycopy(ones, 0, order, zeros, nOnes)
        def child(b: Int, cFrom: Int, cUntil: Int): Node = {
          val p = prefix.clone(); p(d) = (p(d) << 1) | b
          val bs = bits.clone(); bs(d) += 1
          node(cFrom, cUntil, p, bs)
        }
        new Inner(prefix, bits, d, child(0, from, zeros), child(1, zeros, until))
      }
    }

    val root = if (total == 0) None else Some(node(0, total, new Array[Int](l), new Array[Int](l)))
    val symbols = new Array[Byte](total * l)
    var slot = 0
    while (slot < total) { System.arraycopy(words, order(slot) * l, symbols, slot * l, l); slot += 1 }
    new TreeIndex(space, leafCapacity, Slab.pack(order.map(rows)), symbols, root)
  }
}
