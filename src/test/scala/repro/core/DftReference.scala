package repro.core

/** Full-spectrum DFTs that tests check `Dft.Selected` and the Parseval
  * weights against. Same convention as `Dft`: coefficients scaled by
  * 1/sqrt(n), interleaved [re0, im0, re1, im1, ...].
  */
object DftReference {

  /** Full complex DFT of a real input, naive O(n^2). Returns 2n values. */
  def naiveFull(x: Array[Double]): Array[Double] = {
    val n = x.length
    val out = new Array[Double](2 * n)
    val scale = 1.0 / math.sqrt(n.toDouble)
    var k = 0
    while (k < n) {
      var re = 0.0; var im = 0.0
      var t = 0
      while (t < n) {
        val ang = -2.0 * math.Pi * k * t / n
        re += x(t) * math.cos(ang)
        im += x(t) * math.sin(ang)
        t += 1
      }
      out(2 * k) = re * scale
      out(2 * k + 1) = im * scale
      k += 1
    }
    out
  }

  /** Iterative radix-2 Cooley-Tukey FFT (in place on re/im arrays), for
    * power-of-two n. Scaled by 1/sqrt(n).
    */
  def fftPow2(x: Array[Double]): Array[Double] = {
    val n = x.length
    require(n > 0 && (n & (n - 1)) == 0, s"fftPow2 requires power-of-two length, got $n")
    val re = new Array[Double](n)
    val im = new Array[Double](n)
    // bit-reversal permutation
    var i = 0; var j = 0
    while (i < n) {
      re(j) = x(i)
      var bit = n >> 1
      while (bit != 0 && (j & bit) != 0) { j ^= bit; bit >>= 1 }
      j ^= bit
      i += 1
    }
    var len = 2
    while (len <= n) {
      val ang = -2.0 * math.Pi / len
      val wRe = math.cos(ang); val wIm = math.sin(ang)
      var base = 0
      while (base < n) {
        var curRe = 1.0; var curIm = 0.0
        var k = 0
        while (k < len / 2) {
          val aRe = re(base + k); val aIm = im(base + k)
          val bRe = re(base + k + len / 2) * curRe - im(base + k + len / 2) * curIm
          val bIm = re(base + k + len / 2) * curIm + im(base + k + len / 2) * curRe
          re(base + k) = aRe + bRe; im(base + k) = aIm + bIm
          re(base + k + len / 2) = aRe - bRe; im(base + k + len / 2) = aIm - bIm
          val nRe = curRe * wRe - curIm * wIm
          curIm = curRe * wIm + curIm * wRe
          curRe = nRe
          k += 1
        }
        base += len
      }
      len <<= 1
    }
    val out = new Array[Double](2 * n)
    val scale = 1.0 / math.sqrt(n.toDouble)
    i = 0
    while (i < n) { out(2 * i) = re(i) * scale; out(2 * i + 1) = im(i) * scale; i += 1 }
    out
  }

  /** Full spectrum for arbitrary n: FFT when n is a power of two, naive DFT
    * otherwise (series lengths in this domain are <= a few hundred).
    */
  def full(x: Array[Double]): Array[Double] =
    if (x.length > 0 && (x.length & (x.length - 1)) == 0) fftPow2(x) else naiveFull(x)
}
