package repro.core

/** A single data series: an id and its raw values (32-bit floats, as in the
  * paper's datasets; distance accumulation is always done in doubles).
  */
final case class SeriesRecord(id: Long, values: Array[Float]) {
  override def toString: String = s"SeriesRecord($id, len=${values.length})"
}

/** Numeric substrate shared by every summarization and engine: z-normalization
  * and the (squared) Euclidean distance, with an early-abandoning variant used
  * by the GEMINI refinement step and the UCR-scan baseline.
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

  /** Euclidean distance. */
  def ed(a: Array[Float], b: Array[Float]): Double = math.sqrt(edSq(a, b))

  /** Squared ED with early abandoning: once the partial sum exceeds
    * `bsfSq` the scan stops and the (>= bsfSq) partial sum is returned.
    * Checked every 8 points — the chunk granularity of the paper's SIMD
    * kernels. If the returned value is < bsfSq it IS the exact squared ED.
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

  /** `edSqEarlyAbandon(a, b.slice(off, off + a.length), bsfSq)` without the
    * copy: the same sums in the same order, so the same result bit for bit.
    * Reads the series stored at offset `off` of a flat array.
    */
  def edSqEarlyAbandonAt(a: Array[Float], b: Array[Float], off: Int, bsfSq: Double): Double = {
    val n = a.length
    var i = 0; var acc = 0.0
    while (i < n) {
      val end = math.min(i + 8, n)
      while (i < end) { val d = a(i).toDouble - b(off + i); acc += d * d; i += 1 }
      if (acc > bsfSq) return acc
    }
    acc
  }

  /** z-normalized squared ED computed from raw (un-normalized) inputs. */
  def zEdSq(a: Array[Float], b: Array[Float]): Double = edSq(znorm(a), znorm(b))
}
