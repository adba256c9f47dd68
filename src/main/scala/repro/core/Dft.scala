package repro.core

/** Discrete Fourier Transform substrate, built from scratch (the paper's
  * transformation layer for SFA; JTransforms on the classpath is deliberately
  * not used).
  *
  * Convention: all coefficients are scaled by 1/sqrt(n). Under this scaling
  * Parseval's theorem reads, for real series a and b of length n with spectra
  * A and B:
  *
  *   ED^2(a, b) = sum_k w_k * [ (Re A_k - Re B_k)^2 + (Im A_k - Im B_k)^2 ]
  *
  * over the half-spectrum k in [0, n/2], with weight w_k = 1 for k = 0 and
  * (even n) k = n/2, and w_k = 2 otherwise. This is exactly the weighting the
  * SFA lower-bound distance uses (paper section IV-E3), so truncating to any
  * subset of coefficients lower-bounds the ED.
  */
object Dft {

  /** Number of complex coefficients in the non-redundant half spectrum. */
  def halfSpectrumSize(n: Int): Int = n / 2 + 1

  /** The DFT values at an explicit list of flat value indices (2k = Re of
    * coefficient k, 2k+1 = Im) of length-`n` series, in the order given:
    * SFA only ever needs the candidate values (MCB) or the l selected ones
    * (projection). Each value is the sum of x(t) times one twiddle row,
    * scaled by 1/sqrt(n) afterwards. Thread-safe; serializable so it can ship
    * inside Spark closures. The rows are not serialized: a deserialized copy
    * rebuilds them on its first `transform`, so a space that rides in every
    * query job's task binary costs a few bytes, not one row per index.
    */
  final class Selected(val n: Int, val valueIndices: Array[Int]) extends Serializable {
    valueIndices.foreach(vi => require(vi >= 0 && vi / 2 < halfSpectrumSize(n),
                                       s"value index $vi out of range for n=$n"))
    private val scale = 1.0 / math.sqrt(n.toDouble)
    // row(j)(t) = cos(-2 pi k t / n) for Re, sin(-2 pi k t / n) for Im, k = vi / 2
    @transient private lazy val rows = valueIndices.map { vi =>
      val k = vi / 2
      if ((vi & 1) == 0) Array.tabulate(n)(t => math.cos(-2.0 * math.Pi * k * t / n))
      else Array.tabulate(n)(t => math.sin(-2.0 * math.Pi * k * t / n))
    }

    /** `out(j)` is the value at flat index `valueIndices(j)`. */
    def transform(x: Array[Float]): Array[Double] = {
      require(x.length == n, s"series length ${x.length} != table length $n")
      val out = new Array[Double](valueIndices.length)
      val rs = rows
      var j = 0
      while (j < rs.length) {
        val row = rs(j)
        var acc = 0.0
        var t = 0
        while (t < n) { acc += x(t).toDouble * row(t); t += 1 }
        out(j) = acc * scale
        j += 1
      }
      out
    }
  }

  /** Parseval weight of the real/imaginary *value* with flat index `vi`
    * (vi = 2k for Re of coefficient k, 2k+1 for Im) in a length-n series:
    * 1 for DC and the Nyquist real part, 0 for imaginary parts that are
    * identically zero for real input (Im_0 and Im_{n/2} for even n),
    * 2 otherwise.
    */
  def valueWeight(vi: Int, n: Int): Double = {
    val k = vi / 2
    val isIm = (vi & 1) == 1
    if (k == 0) { if (isIm) 0.0 else 1.0 }
    else if (2 * k == n) { if (isIm) 0.0 else 1.0 } // Nyquist for even n
    else 2.0
  }
}
