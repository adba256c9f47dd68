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

  /** Precomputed twiddle tables for the partial DFT of the first `m` complex
    * coefficients of length-`n` series — the hot path: SFA only ever needs the
    * first ~32 coefficients. One instance per (n, m); thread-safe; serializable
    * so it can ship inside Spark closures. The tables are not serialized: a
    * deserialized copy rebuilds them on its first `transform`, so a space that
    * rides in every query job's task binary costs a few KB, not 2·m·n doubles.
    */
  final class Partial(val n: Int, val m: Int) extends Serializable {
    require(m >= 1 && m <= halfSpectrumSize(n), s"m=$m out of range for n=$n")
    private val scale = 1.0 / math.sqrt(n.toDouble)
    // cos/sin tables: cosT(k)(t) = cos(-2 pi k t / n)
    @transient private lazy val cosT = Array.tabulate(m, n)((k, t) => math.cos(-2.0 * math.Pi * k * t / n))
    @transient private lazy val sinT = Array.tabulate(m, n)((k, t) => math.sin(-2.0 * math.Pi * k * t / n))

    /** First m complex coefficients, interleaved [re0, im0, ..., re_{m-1}, im_{m-1}]. */
    def transform(x: Array[Float]): Array[Double] = {
      require(x.length == n, s"series length ${x.length} != table length $n")
      val out = new Array[Double](2 * m)
      val cos = cosT; val sin = sinT
      var k = 0
      while (k < m) {
        val ck = cos(k); val sk = sin(k)
        var re = 0.0; var im = 0.0
        var t = 0
        while (t < n) { val v = x(t).toDouble; re += v * ck(t); im += v * sk(t); t += 1 }
        out(2 * k) = re * scale
        out(2 * k + 1) = im * scale
        k += 1
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
