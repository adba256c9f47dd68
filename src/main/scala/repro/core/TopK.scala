package repro.core

/** The k smallest (squared distance, id) pairs offered so far, ordered by
  * distance, then id — the order every engine and the driver merge answer in.
  * A bounded max-heap over primitive arrays: the root is the worst pair kept.
  *
  * Ties are binding: when full, a distance equal to the worst kept one is
  * admitted if its id is smaller. Callers prune on `boundSq` with a strict
  * `>` so no tied candidate is dropped before it is offered.
  */
final class TopK(k: Int) {
  require(k > 0, s"k must be positive, got $k")

  private var dSqs = new Array[Double](math.min(k, 16))
  private var ids  = new Array[Long](dSqs.length)
  private var size = 0

  /** The k-th smallest squared distance, or +Inf while fewer than k are kept:
    * a candidate whose distance or lower bound is above it cannot enter.
    */
  def boundSq: Double = if (size == k) dSqs(0) else Double.PositiveInfinity

  private def worse(d1: Double, id1: Long, d2: Double, id2: Long): Boolean =
    d1 > d2 || (d1 == d2 && id1 > id2)

  def offer(dSq: Double, id: Long): Unit =
    if (size < k) add(dSq, id)
    else if (worse(dSqs(0), ids(0), dSq, id)) siftDown(dSq, id, size)

  /** Append (dSq, id) while fewer than k are kept and sift it up. */
  private def add(dSq: Double, id: Long): Unit = {
    if (size == dSqs.length) {
      val cap = math.min(k.toLong, 2L * size).toInt
      dSqs = java.util.Arrays.copyOf(dSqs, cap)
      ids = java.util.Arrays.copyOf(ids, cap)
    }
    var i = size
    size += 1
    while (i > 0 && worse(dSq, id, dSqs((i - 1) / 2), ids((i - 1) / 2))) {
      val p = (i - 1) / 2
      dSqs(i) = dSqs(p); ids(i) = ids(p); i = p
    }
    dSqs(i) = dSq; ids(i) = id
  }

  /** Place (dSq, id) at the root and sift it down within the first `n` slots. */
  private def siftDown(dSq: Double, id: Long, n: Int): Unit = {
    var i = 0
    var done = false
    while (!done) {
      val l = 2 * i + 1
      if (l >= n) done = true
      else {
        val c = if (l + 1 < n && worse(dSqs(l + 1), ids(l + 1), dSqs(l), ids(l))) l + 1 else l
        if (worse(dSqs(c), ids(c), dSq, id)) { dSqs(i) = dSqs(c); ids(i) = ids(c); i = c }
        else done = true
      }
    }
    dSqs(i) = dSq; ids(i) = id
  }

  /** The kept pairs as (id, distance), best first. Empties the heap. */
  def drain(): Array[(Long, Double)] = {
    val out = new Array[(Long, Double)](size)
    while (size > 0) {
      size -= 1
      out(size) = (ids(0), math.sqrt(dSqs(0)))
      if (size > 0) siftDown(dSqs(size), ids(size), size)
    }
    out
  }
}
