package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Dft, DftReference, Series}
import repro.data.SeriesGen._

class SeriesGenSpec extends AnyFunSuite {

  test("series are deterministic in (profile, seed, id)") {
    val p = Burst(128, 5, 15)
    val a = SeriesGen.series(p, 7, 42)
    val b = SeriesGen.series(p, 7, 42)
    assert(a.sameElements(b))
  }

  test("different ids give different series; different seeds too") {
    val p = SineMix(64, 5, 10)
    assert(!SeriesGen.series(p, 1, 0).sameElements(SeriesGen.series(p, 1, 1)))
    assert(!SeriesGen.series(p, 1, 0).sameElements(SeriesGen.series(p, 2, 0)))
  }

  test("all profiles produce the requested length and finite values") {
    val profiles = Seq(RandomWalk(100), SineMix(96, 5, 20), Burst(256, 4, 12),
                       IidGaussian(128), EcgLike(128), SquareWave(64, 3, 9))
    profiles.foreach { p =>
      val s = SeriesGen.series(p, 3, 11)
      assert(s.length == p.len)
      s.foreach(v => assert(java.lang.Float.isFinite(v)))
    }
  }

  /** Fraction of spectral energy below frequency `cut` for a z-normed series. */
  private def lowFreqEnergy(x: Array[Float], cut: Int): Double = {
    val z = Series.znorm(x)
    val spec = DftReference.full(z.map(_.toDouble))
    val n = x.length
    var low = 0.0; var tot = 0.0
    for (k <- 1 until Dft.halfSpectrumSize(n); p <- 0 to 1) {
      val vi = 2 * k + p
      val e = Dft.valueWeight(vi, n) * spec(vi) * spec(vi)
      tot += e
      if (k <= cut) low += e
    }
    if (tot == 0) 0.0 else low / tot
  }

  test("RandomWalk concentrates energy in low frequencies") {
    val e = (0 until 20).map(i => lowFreqEnergy(SeriesGen.series(RandomWalk(128), 5, i), 8)).sum / 20
    assert(e > 0.8, s"low-freq energy $e")
  }

  test("high-frequency SineMix concentrates energy above the PAA band") {
    val p = SineMix(128, 40, 60, 4, noise = 0.2)
    val e = (0 until 20).map(i => lowFreqEnergy(SeriesGen.series(p, 6, i), 16)).sum / 20
    assert(e < 0.3, s"low-freq energy $e should be small")
  }

  test("Burst has its dominant frequency inside the configured band") {
    val p = Burst(256, 8, 16, noise = 0.1)
    var inBand = 0
    for (i <- 0 until 20) {
      val z = Series.znorm(SeriesGen.series(p, 7, i))
      val spec = DftReference.full(z.map(_.toDouble))
      val energies = (1 until 128).map(k => spec(2 * k) * spec(2 * k) + spec(2 * k + 1) * spec(2 * k + 1))
      val kPeak = energies.indexOf(energies.max) + 1
      if (kPeak >= 4 && kPeak <= 24) inBand += 1 // damped oscillation widens the band
    }
    assert(inBand >= 15, s"only $inBand/20 bursts peaked in band")
  }

  test("IidGaussian has roughly flat spectrum") {
    val e = (0 until 30).map(i => lowFreqEnergy(SeriesGen.series(IidGaussian(128), 8, i), 16)).sum / 30
    // 16 of 64 frequencies ~ 25% of energy
    assert(e > 0.1 && e < 0.45, s"low-freq fraction $e")
  }

  test("dataset() is consistent with series() regardless of partitioning") {
    val spark = repro.SparkSpec.shared
    val p = SineMix(64, 5, 10)
    val ds = SeriesGen.dataset(spark, p, 50, seed = 9).repartition(7)
    val rows = ds.collect().sortBy(_.id)
    rows.foreach { r => assert(r.values.sameElements(SeriesGen.series(p, 9, r.id))) }
  }

  test("queries use a disjoint id stream") {
    val p = Burst(64, 3, 9)
    val qs = SeriesGen.queries(p, 10, 11)
    assert(qs.length == 10)
    qs.foreach(q => assert(q.length == 64))
  }
}
