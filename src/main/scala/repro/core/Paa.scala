package repro.core

/** Piecewise Aggregate Approximation (Keogh et al. 2001) — the summarization
  * underlying iSAX: the series is split into `l` segments and each segment is
  * represented by its mean.
  *
  * Handles lengths not divisible by `l` (e.g. BigANN's 100-point series with
  * l = 16) via floor(i * n / l) segment boundaries; the lower-bound distance
  * then weights each segment by its true length instead of the uniform n/l.
  */
object Paa {

  /** Segment boundary table: segment i covers [bounds(i), bounds(i+1)). */
  def bounds(n: Int, l: Int): Array[Int] = {
    require(l >= 1 && l <= n, s"l=$l out of range for n=$n")
    Array.tabulate(l + 1)(i => ((i.toLong * n) / l).toInt)
  }

  /** PAA transform: per-segment means (doubles). */
  def transform(x: Array[Float], l: Int): Array[Double] = {
    val b = bounds(x.length, l)
    val out = new Array[Double](l)
    var s = 0
    while (s < l) {
      var acc = 0.0
      var i = b(s)
      while (i < b(s + 1)) { acc += x(i); i += 1 }
      out(s) = acc / (b(s + 1) - b(s))
      s += 1
    }
    out
  }

  /** Per-segment lengths, used as weights in the PAA/iSAX lower bound. */
  def segmentLengths(n: Int, l: Int): Array[Int] = {
    val b = bounds(n, l)
    Array.tabulate(l)(i => b(i + 1) - b(i))
  }
}
