package repro.core

/** A single data series: an id and its raw values (32-bit floats, as in the
  * paper's datasets; distance accumulation is always done in doubles).
  */
final case class SeriesRecord(id: Long, values: Array[Float]) {
  override def toString: String = s"SeriesRecord($id, len=${values.length})"
}

/** Numeric substrate shared by every summarization and engine: z-normalization
  * and the squared Euclidean distance, with the early-abandoning variant used
  * by the GEMINI refinement step of the trees and by the UCR-scan baseline.
  *
  * All engines z-normalize series once at indexing time, so the plain ED over
  * stored series equals the paper's z-normalized ED (Definition 2).
  */
object Series {

  /** Guard below which a series is treated as constant (z-norm -> all zeros). */
  val SigmaEps: Double = 1e-12

  /** z-normalize: subtract mean, divide by the population standard deviation.
    * Constant series map to the all-zero series. A series holding a NaN or an
    * infinite value has a NaN mean or variance, so it maps to all NaN.
    */
  def znorm(x: Array[Float]): Array[Float] = {
    val n = x.length
    var i = 0; var sum = 0.0; var sumSq = 0.0
    while (i < n) { val v = x(i).toDouble; sum += v; sumSq += v * v; i += 1 }
    val mean = sum / n
    val varr = math.max(0.0, sumSq / n - mean * mean)
    val std  = math.sqrt(varr)
    val out  = new Array[Float](n)
    if (std < SigmaEps) return out // constant series -> zeros
    i = 0
    while (i < n) { out(i) = ((x(i) - mean) / std).toFloat; i += 1 }
    out
  }

  /** `znorm(x)` of the stored series `id`, rejected with its id if it holds a
    * NaN or an infinite value (its distance to any query would be NaN, so no
    * search could return it). Reads `znorm`'s NaN output: no extra pass.
    */
  def znormFinite(id: Long, x: Array[Float]): Array[Float] = {
    val z = znorm(x)
    require(z.isEmpty || !z(0).isNaN, s"series $id has a NaN or infinite value")
    z
  }

  /** Squared Euclidean distance between two equal-length series. */
  def edSq(a: Array[Float], b: Array[Float]): Double = {
    require(a.length == b.length, s"length mismatch: ${a.length} vs ${b.length}")
    var i = 0; var acc = 0.0
    while (i < a.length) { val d = a(i).toDouble - b(i); acc += d * d; i += 1 }
    acc
  }

  /** `edSqEarlyAbandonAt(a, b, 0, bsfSq)` for two equal-length series. */
  def edSqEarlyAbandon(a: Array[Float], b: Array[Float], bsfSq: Double): Double = {
    require(a.length == b.length, s"length mismatch: ${a.length} vs ${b.length}")
    edSqEarlyAbandonAt(a, b, 0, bsfSq)
  }

  /** Squared ED between `a` and the series stored at offset `off` of a flat
    * array `b`, with early abandoning: once the partial sum exceeds `bsfSq`
    * the scan stops and the (> bsfSq) partial sum is returned. Checked after
    * every chunk of 8 points, the chunk granularity of the paper's SIMD
    * kernels; the last `n % 8` points are added without a check. If the
    * returned value is <= bsfSq it IS the exact squared ED. The one
    * refinement kernel of the trees and UCR-P.
    */
  def edSqEarlyAbandonAt(a: Array[Float], b: Array[Float], off: Int, bsfSq: Double): Double = {
    val n = a.length
    require(off >= 0 && off <= b.length - n,
      s"a series of length $n at offset $off does not fit in an array of length ${b.length}")
    val chunked = n & ~7
    var i = 0; var acc = 0.0
    while (i < chunked) {
      val o = off + i
      val d0 = a(i).toDouble - b(o);         val d1 = a(i + 1).toDouble - b(o + 1)
      val d2 = a(i + 2).toDouble - b(o + 2); val d3 = a(i + 3).toDouble - b(o + 3)
      val d4 = a(i + 4).toDouble - b(o + 4); val d5 = a(i + 5).toDouble - b(o + 5)
      val d6 = a(i + 6).toDouble - b(o + 6); val d7 = a(i + 7).toDouble - b(o + 7)
      // one addition at a time, in index order: the sum of a plain loop, bit for bit
      acc += d0 * d0; acc += d1 * d1; acc += d2 * d2; acc += d3 * d3
      acc += d4 * d4; acc += d5 * d5; acc += d6 * d6; acc += d7 * d7
      if (acc > bsfSq) return acc
      i += 8
    }
    while (i < n) { val d = a(i).toDouble - b(off + i); acc += d * d; i += 1 }
    acc
  }
}
