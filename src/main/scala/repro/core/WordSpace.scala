package repro.core

/** Query-side projection of a raw (z-normalized) series into the summarization
  * domain: PAA segment means for iSAX, selected DFT values for SFA.
  */
trait Projector extends Serializable {
  def project(x: Array[Float]): Array[Double]
}

/** PAA projector for iSAX (paper section IV-D). */
final class PaaProjector(val n: Int, val l: Int) extends Projector {
  override def project(x: Array[Float]): Array[Double] = Paa.transform(x, l)
}

/** DFT projector for SFA: the learned best real/imag values (paper IV-E2),
  * in `bestIdx` order. `bestIdx(j)` is a flat value index (2k = Re of
  * coefficient k, 2k+1 = Im).
  */
final class DftProjector(n: Int, bestIdx: Array[Int]) extends Projector {
  private val dft = new Dft.Selected(n, bestIdx)
  override def project(x: Array[Float]): Array[Double] = dft.transform(x)
}

/** A quantized word space: the common abstraction behind iSAX and SFA that the
  * MESSI-style tree index is generic over.
  *
  * Every dimension `j` has a monotone interior breakpoint table
  * `breakpoints(j)` of size `alpha - 1` (outer boundaries are implicitly
  * +/- infinity), a lower-bound weight `weights(j)` (segment length for iSAX,
  * Parseval weight for SFA), and the projector maps raw series into the
  * summarization domain. A full-cardinality symbol is the bin index of the
  * projected value; a node in the tree holds a `bits(j)`-bit *prefix* of each
  * symbol, denoting the union of the 2^(maxBits - bits) adjacent bins — this
  * works because alpha is a power of two and both equi-depth and equi-width
  * (and the N(0,1)) binnings merge dyadically.
  */
final class QuantizedWordSpace(
    val name: String,
    val n: Int,
    val l: Int,
    val alpha: Int,
    val breakpoints: Array[Array[Double]],
    val weights: Array[Double],
    val projector: Projector,
) extends Serializable {
  require(alpha >= 2 && (alpha & (alpha - 1)) == 0, s"alpha must be a power of two, got $alpha")
  require(alpha <= 256, s"alpha must be at most 256 (symbols are stored in a byte), got $alpha")
  require(breakpoints.length == l && weights.length == l,
          s"need $l breakpoint tables and weights")
  breakpoints.foreach(bp => require(bp.length == alpha - 1, s"need ${alpha - 1} interior breakpoints"))

  /** Bits per symbol at full cardinality. */
  val maxBits: Int = Integer.numberOfTrailingZeros(alpha)

  def project(x: Array[Float]): Array[Double] = projector.project(x)

  /** Symbol of value `v` in dimension `j`: the number of breakpoints <= v
    * (bins are half-open [bp(a-1), bp(a))). Implemented as an upper-bound
    * binary search so duplicate breakpoints — possible when a small MCB sample
    * yields degenerate quantiles — still quantize consistently.
    */
  def symbolOf(j: Int, v: Double): Int = {
    val bp = breakpoints(j)
    var lo = 0
    var hi = bp.length // first index with bp(idx) > v, searched in [lo, hi]
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (bp(mid) <= v) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Quantize a projected vector into a full-cardinality word. */
  def quantize(vals: Array[Double]): Array[Int] = {
    val w = new Array[Int](l)
    var j = 0
    while (j < l) { w(j) = symbolOf(j, vals(j)); j += 1 }
    w
  }

  /** Full-cardinality word of a raw (z-normalized) series. */
  def word(x: Array[Float]): Array[Int] = quantize(project(x))

  /** Weighted squared mindist of value `v` to the bin of full-cardinality
    * symbol `s` in dimension `j` (Eq. 2): zero inside the bin, else the
    * squared gap to its nearer edge. The one definition of a word-LBD term,
    * shared by `wordLbSq` and `lbTable`, so both sum bit-identical terms.
    */
  private def termSq(j: Int, s: Int, v: Double): Double = {
    val bp = breakpoints(j)
    var d = 0.0
    if (s > 0 && v < bp(s - 1)) d = bp(s - 1) - v
    else if (s < alpha - 1 && v > bp(s)) d = v - bp(s)
    weights(j) * d * d
  }

  /** Per-series squared LBD: query projection vs a full-cardinality word,
    * early-abandoning against bsfSq. Terms are summed in dimension order and
    * abandoning is checked only at chunk boundaries of
    * `QuantizedWordSpace.ChunkSize` lanes (Alg. 3's control structure).
    */
  def wordLbSq(qp: Array[Double], w: Array[Int], bsfSq: Double): Double = {
    var acc = 0.0
    var j = 0
    while (j < l) {
      val chunkEnd = math.min(j + QuantizedWordSpace.ChunkSize, l)
      while (j < chunkEnd) { acc += termSq(j, w(j), qp(j)); j += 1 }
      if (acc > bsfSq) return acc
    }
    acc
  }

  /** The query's l×alpha table of word-LBD terms: entry `(j << maxBits) + s`
    * is `termSq(j, s, qp(j))`. Built once per query, it turns each word-LBD
    * into l lookups (the asymmetric distance of product quantization).
    */
  def lbTable(qp: Array[Double]): Array[Double] = {
    val table = new Array[Double](l << maxBits)
    var j = 0
    while (j < l) {
      var s = 0
      while (s < alpha) { table((j << maxBits) + s) = termSq(j, s, qp(j)); s += 1 }
      j += 1
    }
    table
  }

  /** `wordLbSq` of the word stored as unsigned bytes at `symbols(off until
    * off + l)`, read from the query's `lbTable`. Same terms, order and
    * abandoning, hence bit-identical results.
    */
  def tableLbSq(table: Array[Double], symbols: Array[Byte], off: Int, bsfSq: Double): Double = {
    var acc = 0.0
    var j = 0
    while (j < l) {
      val chunkEnd = math.min(j + QuantizedWordSpace.ChunkSize, l)
      while (j < chunkEnd) { acc += table((j << maxBits) + (symbols(off + j) & 0xFF)); j += 1 }
      if (acc > bsfSq) return acc
    }
    acc
  }

  /** Node-level squared LBD: query projection vs per-dimension bit prefixes.
    * `prefix(j)` is a `bits(j)`-bit prefix of the 8-bit symbol; bits(j) may be
    * 0 (dimension entirely unconstrained). Allocation-free.
    */
  def nodeLbSq(qp: Array[Double], prefix: Array[Int], bits: Array[Int]): Double = {
    var acc = 0.0
    var j = 0
    while (j < l) {
      val span = maxBits - bits(j)
      val sLo = prefix(j) << span
      val sHi = ((prefix(j) + 1) << span) - 1
      val bp = breakpoints(j)
      val v = qp(j)
      var d = 0.0
      if (sLo > 0 && v < bp(sLo - 1)) d = bp(sLo - 1) - v
      else if (sHi < alpha - 1 && v > bp(sHi)) d = v - bp(sHi)
      acc += weights(j) * d * d
      j += 1
    }
    acc
  }

  /** Squared lower bound of the plain projection distance (no quantization):
    * sum_j w_j (qp_j - cp_j)^2. For SFA this is the DFT lower bound (Eq. 1);
    * for iSAX it is the PAA lower bound. Only tests call it, to check the
    * quantized bounds against it.
    */
  def projLbSq(qp: Array[Double], cp: Array[Double]): Double = {
    var acc = 0.0
    var j = 0
    while (j < l) { val d = qp(j) - cp(j); acc += weights(j) * d * d; j += 1 }
    acc
  }
}

object QuantizedWordSpace {

  /** Lanes per early-abandoning chunk of the word-LBD: one 256-bit vector of
    * 32-bit floats in the paper's SIMD kernel (Alg. 3, Figure 6).
    */
  val ChunkSize = 8
}
