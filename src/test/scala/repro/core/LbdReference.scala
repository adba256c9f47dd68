package repro.core

/** The generic form of the paper's SIMD lower-bound kernel (Algorithm 3,
  * Figure 6) over per-dimension boxes `[lo, hi]`, and the word- and
  * node-level LBDs of a `QuantizedWordSpace` expressed through it. Tests pin
  * the space's hot-path kernels to these, and check the quantized bounds
  * against the unquantized PAA and projection bounds below.
  */
object LbdReference {

  /** Weighted squared mindist between a query projection `qp` and a box,
    * early-abandoning against `bsfSq` between chunks of
    * `QuantizedWordSpace.ChunkSize` lanes. Per lane, all three branches of
    * Eq. 2 are computed as d = max(0, lo_i - qp_i, qp_i - hi_i); the lane
    * adds w_i * d^2. A result `< bsfSq` is the exact distance.
    */
  def minDistSq(qp: Array[Double], lo: Array[Double], hi: Array[Double],
                weights: Array[Double], bsfSq: Double): Double = {
    val l = qp.length
    var acc = 0.0
    var i = 0
    while (i < l) {
      val end = math.min(i + QuantizedWordSpace.ChunkSize, l)
      while (i < end) {
        val v = qp(i)
        val below = lo(i) - v   // > 0 iff v is LOWER than the box
        val above = v - hi(i)   // > 0 iff v is UPPER than the box
        var d = if (below > above) below else above
        if (d < 0) d = 0.0      // ZERO branch: inside the box
        acc += weights(i) * d * d
        i += 1
      }
      if (acc > bsfSq) return acc
    }
    acc
  }

  /** The explicit branches of Eq. 2, without early abandoning. */
  def minDistSqReference(qp: Array[Double], lo: Array[Double], hi: Array[Double],
                         weights: Array[Double]): Double = {
    var acc = 0.0
    var i = 0
    while (i < qp.length) {
      val v = qp(i)
      val d =
        if (v < lo(i)) lo(i) - v
        else if (v > hi(i)) v - hi(i)
        else 0.0
      acc += weights(i) * d * d
      i += 1
    }
    acc
  }

  /** Box of the bins `[sLo, sHi]` in dimension `j`, with infinite outer edges. */
  private def edges(s: QuantizedWordSpace, j: Int, sLo: Int, sHi: Int): (Double, Double) =
    (if (sLo == 0) Double.NegativeInfinity else s.breakpoints(j)(sLo - 1),
     if (sHi == s.alpha - 1) Double.PositiveInfinity else s.breakpoints(j)(sHi))

  /** `s.wordLbSq` through the generic kernel. */
  def wordLbSq(s: QuantizedWordSpace, qp: Array[Double], w: Array[Int], bsfSq: Double): Double = {
    val box = Array.tabulate(s.l)(j => edges(s, j, w(j), w(j)))
    minDistSq(qp, box.map(_._1), box.map(_._2), s.weights, bsfSq)
  }

  /** `s.nodeLbSq` through the generic kernel. */
  def nodeLbSq(s: QuantizedWordSpace, qp: Array[Double], prefix: Array[Int], bits: Array[Int]): Double = {
    val box = Array.tabulate(s.l) { j =>
      val span = s.maxBits - bits(j)
      edges(s, j, prefix(j) << span, ((prefix(j) + 1) << span) - 1)
    }
    minDistSq(qp, box.map(_._1), box.map(_._2), s.weights, Double.PositiveInfinity)
  }

  /** Squared PAA lower-bound distance:
    *   d^2 = sum_i len_i * (pa_i - pb_i)^2  <=  ED^2(a, b).
    * (For n divisible by l this is the classic (n/l) * sum of squared
    * differences.)
    */
  def paaLbSq(pa: Array[Double], pb: Array[Double], segLen: Array[Int]): Double = {
    var i = 0; var acc = 0.0
    while (i < pa.length) { val d = pa(i) - pb(i); acc += segLen(i) * d * d; i += 1 }
    acc
  }

  /** Squared lower bound of the plain projection distance (no quantization):
    * sum_j w_j (qp_j - cp_j)^2. For SFA this is the DFT lower bound (Eq. 1);
    * for iSAX it is the PAA lower bound.
    */
  def projLbSq(s: QuantizedWordSpace, qp: Array[Double], cp: Array[Double]): Double = {
    var acc = 0.0
    var j = 0
    while (j < s.l) { val d = qp(j) - cp(j); acc += s.weights(j) * d * d; j += 1 }
    acc
  }
}
