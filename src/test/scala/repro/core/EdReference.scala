package repro.core

/** Plain forms of the Euclidean distances: the early-abandoning ED over one
  * series array, as a per-series loop in chunks of 8 points, and the ED and
  * z-normalized ED built on `Series.edSq`. Tests pin
  * `Series.edSqEarlyAbandonAt` to `edSqEarlyAbandon`.
  */
object EdReference {

  /** Squared ED with early abandoning, checked after every chunk of 8 points
    * and after the last, shorter one. A result <= bsfSq is the exact squared
    * ED; otherwise it is the (> bsfSq) partial sum where the scan stopped.
    */
  def edSqEarlyAbandon(a: Array[Float], b: Array[Float], bsfSq: Double): Double = {
    require(a.length == b.length, s"length mismatch: ${a.length} vs ${b.length}")
    val n = a.length
    var i = 0; var acc = 0.0
    while (i < n) {
      val end = math.min(i + 8, n)
      while (i < end) { val d = a(i).toDouble - b(i); acc += d * d; i += 1 }
      if (acc > bsfSq) return acc
    }
    acc
  }

  /** Euclidean distance. */
  def ed(a: Array[Float], b: Array[Float]): Double = math.sqrt(Series.edSq(a, b))

  /** z-normalized squared ED computed from raw (un-normalized) inputs. */
  def zEdSq(a: Array[Float], b: Array[Float]): Double =
    Series.edSq(Series.znorm(a), Series.znorm(b))
}
