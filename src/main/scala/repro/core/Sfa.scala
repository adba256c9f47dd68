package repro.core

/** SFA — the Symbolic Fourier Approximation (paper IV-E): DFT, selection of
  * the l real/imaginary Fourier values with highest variance, and a *learned*
  * quantization (Multiple Coefficient Binning, Alg. 1) with equi-width (the
  * paper's best variant) or equi-depth bins per selected value.
  *
  * The fit is expressed in two stages so one statistics pass over the sample
  * serves every alphabet size in the ablation sweep (Tables V/VI):
  * `fitStats` computes per-value variance / min / max / 256-level empirical
  * quantiles; `modelFromStats` derives a model for a concrete
  * (l, alpha, binning, selection). `fit` composes both.
  */
object Sfa {

  /** Quantization scheme for MCB (paper section IV-E1). */
  sealed trait Binning extends Serializable
  case object EquiWidth extends Binning
  case object EquiDepth extends Binning

  /** Fourier value selection strategy (paper section IV-E2). */
  sealed trait Selection extends Serializable
  case object ByVariance extends Selection // the paper's novel +VAR strategy
  case object FirstL     extends Selection // classic SFA low-pass selection

  /** Number of interior quantile levels retained by the stats pass; all
    * power-of-two alphabets up to this value derive their equi-depth bins from
    * these levels exactly (dyadic nesting).
    */
  val QuantileLevels = 256

  /** Per-value-index statistics over the MCB sample. */
  final case class ColStats(vi: Int, variance: Double, min: Double, max: Double,
                            quantiles: Array[Double]) extends Serializable

  /** Result of the stats pass: one ColStats per candidate real/imag value. */
  final case class Stats(n: Int, cols: Array[ColStats]) extends Serializable

  /** A fitted SFA model; `space` instantiates the word space the index uses. */
  final case class Model(n: Int, l: Int, alpha: Int,
                         bestIdx: Array[Int], breakpoints: Array[Array[Double]],
                         binning: Binning, selection: Selection) extends Serializable {
    def space: QuantizedWordSpace =
      new QuantizedWordSpace(
        name = s"SFA(n=$n,l=$l,a=$alpha,$binning,$selection)",
        n = n, l = l, alpha = alpha,
        breakpoints = breakpoints,
        weights = bestIdx.map(vi => Dft.valueWeight(vi, n)),
        projector = new DftProjector(n, bestIdx),
      )
  }

  /** Candidate flat value indices: real/imag parts of coefficients
    * 1..maxCoeff (DC is identically 0 for z-normalized series and excluded, as
    * are imaginary parts that are identically 0 for real input).
    */
  def candidateValueIndices(n: Int, maxCoeff: Int): Array[Int] = {
    val kMax = math.min(maxCoeff, Dft.halfSpectrumSize(n) - 1)
    (1 to kMax).flatMap(k => Seq(2 * k, 2 * k + 1)).filter(vi => Dft.valueWeight(vi, n) > 0).toArray
  }

  /** Statistics pass of MCB over an in-memory (z-normalized) sample. */
  def fitStats(sample: Array[Array[Float]], n: Int, maxCoeff: Int = 32): Stats = {
    require(sample.nonEmpty, "MCB sample must be non-empty")
    require(sample.forall(_.length == n), s"all sample series must have length $n")
    val cand = candidateValueIndices(n, maxCoeff)
    val dft = new Dft.Selected(n, cand)
    val cols = Array.fill(cand.length)(new Array[Double](sample.length))
    var i = 0
    while (i < sample.length) {
      val vals = dft.transform(sample(i))
      var c = 0
      while (c < cand.length) { cols(c)(i) = vals(c); c += 1 }
      i += 1
    }
    val stats = cand.indices.map { c =>
      val col = cols(c)
      val cnt = col.length
      var sum = 0.0; var sumSq = 0.0
      col.foreach { v => sum += v; sumSq += v * v }
      val mean = sum / cnt
      val variance = math.max(0.0, sumSq / cnt - mean * mean)
      val sorted = col.sorted
      val quantiles = Array.tabulate(QuantileLevels - 1) { j =>
        sorted(math.min(cnt - 1, (((j + 1).toLong * cnt) / QuantileLevels).toInt))
      }
      ColStats(cand(c), variance, sorted.head, sorted.last, quantiles)
    }.toArray
    Stats(n, stats)
  }

  /** Derive a model for a concrete configuration from the stats pass.
    * Selected dimensions are ordered by decreasing variance so that the
    * SIMD/early-abandoning kernel sees the highest-contribution values first
    * (paper section IV-H b).
    */
  def modelFromStats(stats: Stats, l: Int, alpha: Int,
                     binning: Binning = EquiWidth,
                     selection: Selection = ByVariance): Model = {
    require(alpha >= 2 && (alpha & (alpha - 1)) == 0 && alpha <= QuantileLevels,
            s"alpha must be a power of two <= $QuantileLevels, got $alpha")
    require(l <= stats.cols.length,
            s"word length $l exceeds ${stats.cols.length} candidate values")
    val chosen: Array[ColStats] = selection match {
      case ByVariance => stats.cols.sortBy(c => (-c.variance, c.vi)).take(l)
      case FirstL     => stats.cols.sortBy(_.vi).take(l)
    }
    val breakpoints = chosen.map { cs =>
      binning match {
        case EquiWidth =>
          val width = (cs.max - cs.min) / alpha
          Array.tabulate(alpha - 1)(i => cs.min + (i + 1) * width)
        case EquiDepth =>
          // alpha interior breakpoints are an exact subset of the 256 levels
          val step = QuantileLevels / alpha
          Array.tabulate(alpha - 1)(i => cs.quantiles((i + 1) * step - 1))
      }
    }
    Model(stats.n, l, alpha, chosen.map(_.vi), breakpoints, binning, selection)
  }

  /** One-shot local MCB fit (Algorithm 1 without the Spark sampling stage —
    * the caller supplies the sample, already z-normalized).
    */
  def fit(sample: Array[Array[Float]], n: Int, l: Int = 16, alpha: Int = 256,
          maxCoeff: Int = 32, binning: Binning = EquiWidth,
          selection: Selection = ByVariance): Model =
    modelFromStats(fitStats(sample, n, maxCoeff), l, alpha, binning, selection)
}
