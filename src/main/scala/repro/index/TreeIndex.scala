package repro.index

import repro.core.{QuantizedWordSpace, Series, TopK}

import scala.collection.mutable

/** A MESSI-style in-memory tree index (paper IV-A..IV-C), generic over the
  * word space — instantiated with iSAX it is the MESSI index, with SFA it is
  * SOFA's index.
  *
  * Structure (paper IV-B):
  *  - the *root* hashes 1-bit-per-dimension words to subtrees (up to 2^l
  *    children; only populated ones exist);
  *  - *inner* nodes have two children obtained by raising the cardinality of
  *    one dimension by one bit;
  *  - *leaves* store up to `leafCapacity` (series-ref, word) entries; a full
  *    leaf splits on the dimension whose next bit distributes its entries most
  *    evenly (the balanced-split heuristic of iSAX2.0/MESSI).
  *
  * Query answering (paper IV-C) is the GEMINI exact algorithm: an approximate
  * descent seeds the best-so-far (BSF), then leaves are processed from a
  * priority queue ordered by node-level lower-bound distance; per-series
  * word-level LBDs (l lookups in a per-query table, `QuantizedWordSpace.lbTable`)
  * and early-abandoning real distances prune the rest. All distances are
  * squared internally; results are ordered by (distance, id).
  *
  * One instance indexes one Spark partition's series; instances are built
  * single-threaded inside `mapPartitions`. The end of `build` freezes the
  * tree: series, words and ids move into three flat arrays in leaf order, and
  * each leaf keeps a slot range into them. A frozen tree is immutable.
  */
final class TreeIndex private (
    val space: QuantizedWordSpace,
    val leafCapacity: Int,
    val rootBits: Int,
) extends Serializable {
  require(rootBits >= 0 && rootBits <= space.maxBits, s"rootBits=$rootBits out of range")
  require(rootBits.toLong * space.l <= 62, "root key must fit in a Long")

  // Build-time buffers, positionally aligned by insertion index. `freeze`
  // copies them into the columnar layout below and releases them.
  private var pendingSeries = mutable.ArrayBuffer.empty[Array[Float]]
  private var pendingIds    = mutable.ArrayBuffer.empty[Long]
  private var pendingWords  = mutable.ArrayBuffer.empty[Array[Int]]

  // Frozen columnar layout in leaf order: slot `e` holds the z-normalized
  // series `values(e * n until (e + 1) * n)`, its word as unsigned bytes
  // `symbols(e * l until (e + 1) * l)` and its external id `ids(e)`.
  private var values: Array[Float] = _
  private var symbols: Array[Byte] = _
  private var ids: Array[Long] = _

  sealed trait Node extends Serializable {
    def prefix: Array[Int]
    def bits: Array[Int]
  }
  final class Inner(val prefix: Array[Int], val bits: Array[Int], val splitDim: Int,
                    var left: Node, var right: Node) extends Node
  final class Leaf(val prefix: Array[Int], val bits: Array[Int]) extends Node {
    private[TreeIndex] var pending = mutable.ArrayBuffer.empty[Int] // build-time insertion indices
    private[TreeIndex] var from = 0
    private[TreeIndex] var until = 0

    /** This leaf's slots in the frozen layout. */
    def entries: Range = from until until
  }

  /** Root children keyed by the packed 1-bit word (bit j = top bit of symbol j). */
  val root = mutable.LongMap.empty[Node]

  def size: Int = ids.length

  /** Root-child key: the top `rootBits` bits of every symbol, packed. With
    * rootBits = 0 (the laptop-scale default, see DESIGN.md §5) there is a
    * single root child and the tree is driven purely by capacity splits; with
    * rootBits = 1 this is MESSI's hashed root of up-to-2^l children.
    */
  private def topBitKey(w: Array[Int]): Long = {
    if (rootBits == 0) return 0L
    var key = 0L
    var j = 0
    while (j < w.length) {
      key |= ((w(j) >>> (space.maxBits - rootBits)).toLong & ((1L << rootBits) - 1)) << (j * rootBits)
      j += 1
    }
    key
  }

  /** Bit of symbol `sym` at depth `depth` (0 = most significant of maxBits). */
  private def bitAt(sym: Int, depth: Int): Int =
    (sym >>> (space.maxBits - 1 - depth)) & 1

  /** Insert one (already z-normalized) series. Build-time only. */
  private def insert(id: Long, z: Array[Float]): Unit = {
    require(z.length == space.n, s"series $id has length ${z.length}, expected ${space.n}")
    val idx = pendingSeries.length
    pendingSeries += z
    pendingIds += id
    val w = space.word(z)
    pendingWords += w
    val key = topBitKey(w)
    root.get(key) match {
      case None =>
        val prefix = Array.tabulate(space.l)(j => w(j) >>> (space.maxBits - rootBits))
        val leaf = new Leaf(prefix, Array.fill(space.l)(rootBits))
        leaf.pending += idx
        root.update(key, leaf)
      case Some(node) =>
        val replacement = insertInto(node, idx, w)
        if (replacement ne node) root.update(key, replacement)
    }
  }

  /** Insert into a subtree; returns the (possibly new) subtree root. */
  private def insertInto(node: Node, idx: Int, w: Array[Int]): Node = node match {
    case inner: Inner =>
      val d = inner.splitDim
      val bit = bitAt(w(d), inner.bits(d)) // next bit below the inner node's prefix
      if (bit == 0) {
        val r = insertInto(inner.left, idx, w); if (r ne inner.left) inner.left = r
      } else {
        val r = insertInto(inner.right, idx, w); if (r ne inner.right) inner.right = r
      }
      inner
    case leaf: Leaf =>
      leaf.pending += idx
      if (leaf.pending.length > leafCapacity) split(leaf) else leaf
  }

  /** Split a full leaf: raise the cardinality of the dimension whose next bit
    * best balances the entries (ties broken by lowest dimension). If every
    * dimension is at full cardinality the leaf is allowed to overflow.
    */
  private def split(leaf: Leaf): Node = {
    var bestDim = -1
    var bestImbalance = Int.MaxValue
    val half = leaf.pending.length / 2
    var d = 0
    while (d < space.l) {
      if (leaf.bits(d) < space.maxBits) {
        var ones = 0
        leaf.pending.foreach(e => ones += bitAt(pendingWords(e)(d), leaf.bits(d)))
        val imbalance = math.abs(ones - half)
        if (imbalance < bestImbalance) { bestImbalance = imbalance; bestDim = d }
      }
      d += 1
    }
    if (bestDim < 0) return leaf // all dimensions exhausted: overflow leaf

    def child(bit: Int): Leaf = {
      val prefix = leaf.prefix.clone()
      val bits = leaf.bits.clone()
      prefix(bestDim) = (prefix(bestDim) << 1) | bit
      bits(bestDim) += 1
      new Leaf(prefix, bits)
    }
    val left = child(0); val right = child(1)
    leaf.pending.foreach { e =>
      if (bitAt(pendingWords(e)(bestDim), leaf.bits(bestDim)) == 0) left.pending += e
      else right.pending += e
    }
    val inner = new Inner(leaf.prefix, leaf.bits, bestDim, left, right)
    // A degenerate split can leave one child overflowing — recurse until the
    // capacity invariant holds or cardinality is exhausted.
    if (left.pending.length > leafCapacity) inner.left = split(left)
    if (right.pending.length > leafCapacity) inner.right = split(right)
    inner
  }

  /** Copy the build buffers into the columnar layout in one pass over the
    * leaves, give every leaf its slot range, and release the buffers, so the
    * frozen tree holds no per-series objects. Slots keep insertion order
    * within a leaf.
    */
  private def freeze(): Unit = {
    val n = space.n; val l = space.l
    val total = pendingSeries.length
    values = new Array[Float](total * n)
    symbols = new Array[Byte](total * l)
    ids = new Array[Long](total)
    var slot = 0
    allLeaves.foreach { leaf =>
      leaf.from = slot
      leaf.pending.foreach { e =>
        System.arraycopy(pendingSeries(e), 0, values, slot * n, n)
        val w = pendingWords(e)
        var j = 0
        while (j < l) { symbols(slot * l + j) = w(j).toByte; j += 1 }
        ids(slot) = pendingIds(e)
        slot += 1
      }
      leaf.until = slot
      leaf.pending = null
    }
    pendingSeries = null; pendingIds = null; pendingWords = null
  }

  // ---------------------------------------------------------------- querying

  /** One k-NN result: external series id and the (non-squared) distance. */
  def search(query: Array[Float], k: Int): Array[(Long, Double)] = {
    val qz = Series.znorm(query)
    searchProjected(qz, space.project(qz), k)
  }

  /** The query's own leaf: its root child (or, if the query's root key is
    * absent, the root child with the smallest node-level LBD), descended by
    * the query's word bits. `None` only for an empty index.
    */
  private def approxLeaf(qp: Array[Double]): Option[Leaf] = {
    val qWord = space.quantize(qp)
    @annotation.tailrec
    def descend(node: Node): Leaf = node match {
      case inner: Inner =>
        descend(if (bitAt(qWord(inner.splitDim), inner.bits(inner.splitDim)) == 0) inner.left
                else inner.right)
      case leaf: Leaf => leaf
    }
    root.get(topBitKey(qWord))
      .orElse(root.values.minByOption(n => space.nodeLbSq(qp, n.prefix, n.bits)))
      .map(descend)
  }

  /** Approximate search (paper IV-C first phase, which MESSI runs *once*
    * to seed a BSF shared by the parallel exact phase): exact distances to
    * the entries of the query's own leaf, top-k. `searchProjected` runs the
    * same phase itself; this standalone form is kept for `nnbench`, whose
    * replay merges approximate answers across trees into a shared BSF.
    */
  def approxSearch(qz: Array[Float], qp: Array[Double], k: Int): Array[(Long, Double)] = {
    if (ids.isEmpty || k <= 0) return Array.empty
    approxLeaf(qp) match {
      case None => Array.empty
      case Some(leaf) =>
        leaf.entries.toArray
          .map(e => (ids(e), math.sqrt(Series.edSqEarlyAbandonAt(qz, values, e * space.n,
                                                                 Double.PositiveInfinity))))
          .sortBy { case (id, d) => (d, id) }
          .take(k)
    }
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
    if (ids.isEmpty || k <= 0) return Array.empty
    require(qz.length == space.n, s"query length ${qz.length} != series length ${space.n}")
    val top = new TopK(k)
    def bsfSq: Double = math.min(initialBsfSq, top.boundSq)
    val table = space.lbTable(qp)
    val n = space.n; val l = space.l
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
    val pq = new java.util.PriorityQueue[(Double, Node)](math.max(1, root.size), (a: (Double, Node), b: (Double, Node)) => java.lang.Double.compare(a._1, b._1))
    def push(n: Node): Unit = {
      val lb = space.nodeLbSq(qp, n.prefix, n.bits)
      if (lb <= bsfSq) pq.add((lb, n))
    }
    root.values.foreach(push)
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
    root.values.foreach(walk(_, 1))
    (leaves, maxDepth, if (leaves == 0) 0.0 else fill.toDouble / leaves)
  }

  /** All leaves — test hook for structural invariants. */
  def allLeaves: Seq[Leaf] = {
    val buf = mutable.ArrayBuffer.empty[Leaf]
    def walk(n: Node): Unit = n match {
      case i: Inner => walk(i.left); walk(i.right)
      case l: Leaf  => buf += l
    }
    root.values.foreach(walk)
    buf.toSeq
  }

  /** Word and external id of the series in slot `e` — test hooks. */
  def wordOf(e: Int): Array[Int] = Array.tabulate(space.l)(j => symbols(e * space.l + j) & 0xFF)
  def idOf(e: Int): Long = ids(e)
}

object TreeIndex {

  /** Build an index over an iterator of (id, raw series); series are
    * z-normalized on insertion. Used from `mapPartitions`.
    */
  def build(space: QuantizedWordSpace, leafCapacity: Int,
            it: Iterator[(Long, Array[Float])], rootBits: Int = 0): TreeIndex = {
    require(leafCapacity >= 1, s"leafCapacity must be >= 1, got $leafCapacity")
    val t = new TreeIndex(space, leafCapacity, rootBits)
    it.foreach { case (id, raw) => t.insert(id, Series.znorm(raw)) }
    t.freeze()
    t
  }
}
