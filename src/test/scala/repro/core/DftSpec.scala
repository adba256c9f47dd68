package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class DftSpec extends AnyFunSuite {

  private def assertClose(a: Array[Double], b: Array[Double], tol: Double = 1e-8): Unit = {
    assert(a.length == b.length)
    a.zip(b).zipWithIndex.foreach { case ((x, y), i) =>
      assert(math.abs(x - y) < tol, s"index $i: $x vs $y")
    }
  }

  test("fftPow2 matches naive DFT for power-of-two lengths") {
    val r = TestData.rng(20)
    for (n <- Seq(2, 4, 8, 16, 32, 64, 128, 256)) {
      val x = Array.fill(n)(r.nextGaussian())
      assertClose(DftReference.fftPow2(x), DftReference.naiveFull(x), 1e-7)
    }
  }

  test("fftPow2 rejects non-power-of-two lengths") {
    intercept[IllegalArgumentException](DftReference.fftPow2(new Array[Double](96)))
  }

  test("full dispatches correctly for non-power-of-two lengths") {
    val r = TestData.rng(21)
    for (n <- Seq(3, 5, 96, 100, 120)) {
      val x = Array.fill(n)(r.nextGaussian())
      assertClose(DftReference.full(x), DftReference.naiveFull(x), 1e-8)
    }
  }

  test("DFT of a constant series has only a DC component") {
    val n = 32
    val spec = DftReference.full(Array.fill(n)(2.0))
    assert(math.abs(spec(0) - 2.0 * math.sqrt(n.toDouble)) < 1e-9) // sum/sqrt(n)
    spec.drop(2).foreach(v => assert(math.abs(v) < 1e-9))
  }

  test("DFT of a pure cosine concentrates at its frequency") {
    val n = 64
    val f = 5
    val x = Array.tabulate(n)(i => math.cos(2 * math.Pi * f * i / n))
    val spec = DftReference.full(x)
    // coefficient f: re = (n/2)/sqrt(n)
    assert(math.abs(spec(2 * f) - math.sqrt(n.toDouble) / 2) < 1e-9)
    for (k <- 1 until n / 2 if k != f) {
      assert(math.abs(spec(2 * k)) < 1e-9 && math.abs(spec(2 * k + 1)) < 1e-9)
    }
  }

  test("DFT is linear") {
    val r = TestData.rng(22)
    val n = 48
    val x = Array.fill(n)(r.nextGaussian())
    val y = Array.fill(n)(r.nextGaussian())
    val sum = x.zip(y).map { case (a, b) => 2.0 * a - 3.0 * b }
    val got = DftReference.full(sum)
    val want = DftReference.full(x).zip(DftReference.full(y)).map { case (a, b) => 2.0 * a - 3.0 * b }
    assertClose(got, want, 1e-8)
  }

  test("Parseval: energy is preserved under the 1/sqrt(n) scaling") {
    val r = TestData.rng(23)
    for (n <- Seq(16, 64, 100)) {
      val x = Array.fill(n)(r.nextGaussian())
      val spec = DftReference.full(x)
      val timeEnergy = x.map(v => v * v).sum
      val freqEnergy = spec.grouped(2).map(c => c(0) * c(0) + c(1) * c(1)).sum
      assert(math.abs(timeEnergy - freqEnergy) < 1e-8, s"n=$n")
    }
  }

  test("half-spectrum with valueWeight reconstructs the full energy") {
    val r = TestData.rng(24)
    for (n <- Seq(16, 64, 100, 97)) {
      val x = Array.fill(n)(r.nextGaussian())
      val spec = DftReference.full(x)
      val timeEnergy = x.map(v => v * v).sum
      val half = Dft.halfSpectrumSize(n)
      var acc = 0.0
      for (k <- 0 until half; p <- 0 to 1) {
        val vi = 2 * k + p
        acc += Dft.valueWeight(vi, n) * spec(vi) * spec(vi)
      }
      assert(math.abs(timeEnergy - acc) < 1e-8, s"n=$n")
    }
  }

  test("DFT distance over the half spectrum lower-bounds (and equals) ED") {
    val r = TestData.rng(25)
    for (n <- Seq(32, 100); _ <- 1 to 20) {
      val a = Array.fill(n)(r.nextGaussian())
      val b = Array.fill(n)(r.nextGaussian())
      val sa = DftReference.full(a); val sb = DftReference.full(b)
      val ed = a.zip(b).map { case (x, y) => (x - y) * (x - y) }.sum
      val half = Dft.halfSpectrumSize(n)
      var dall = 0.0
      for (k <- 0 until half; p <- 0 to 1) {
        val vi = 2 * k + p
        val d = sa(vi) - sb(vi)
        dall += Dft.valueWeight(vi, n) * d * d
      }
      assert(math.abs(dall - ed) < 1e-8)
      // any truncation lower-bounds
      var dtrunc = 0.0
      for (k <- 0 until math.min(5, half); p <- 0 to 1) {
        val vi = 2 * k + p
        val d = sa(vi) - sb(vi)
        dtrunc += Dft.valueWeight(vi, n) * d * d
      }
      assert(dtrunc <= ed + 1e-8)
    }
  }

  test("Selected transform matches the full transform at unordered value indices") {
    val r = TestData.rng(26)
    for (n <- Seq(32, 96, 100, 256)) {
      // Re and Im parts out of order, the Nyquist Re (vi = n), DC, and a few
      // random indices of the half spectrum
      val idx = Array(n, 7, 2, 3, n / 2 + 1, 0, n - 1) ++ Array.fill(6)(r.nextInt(n + 1))
      val dft = new Dft.Selected(n, idx)
      val xf = Array.fill(n)(r.nextGaussian().toFloat)
      val got = dft.transform(xf)
      val want = DftReference.full(xf.map(_.toDouble))
      assert(got.length == idx.length)
      idx.indices.foreach(j => assert(math.abs(got(j) - want(idx(j))) < 1e-6, s"n=$n vi=${idx(j)}"))
      // each value depends only on its own index, so reordering the indices
      // reorders the same bits
      val rev = new Dft.Selected(n, idx.reverse).transform(xf)
      assert(rev.sameElements(got.reverse))
    }
  }

  test("Selected rejects a wrong input length and an out-of-range value index") {
    val d = new Dft.Selected(16, Array(2, 16))
    intercept[IllegalArgumentException](d.transform(new Array[Float](15)))
    intercept[IllegalArgumentException](new Dft.Selected(16, Array(2, 18)))
    intercept[IllegalArgumentException](new Dft.Selected(16, Array(-1)))
    intercept[IllegalArgumentException](new Dft.Selected(17, Array(18)))
  }

  test("valueWeight: DC and Nyquist singletons, zero imaginary parts") {
    val n = 16
    assert(Dft.valueWeight(0, n) == 1.0)  // Re DC
    assert(Dft.valueWeight(1, n) == 0.0)  // Im DC == 0 for real input
    assert(Dft.valueWeight(2, n) == 2.0)  // Re k=1
    assert(Dft.valueWeight(3, n) == 2.0)  // Im k=1
    assert(Dft.valueWeight(16, n) == 1.0) // Re Nyquist (k = 8)
    assert(Dft.valueWeight(17, n) == 0.0) // Im Nyquist == 0
    // odd n: no Nyquist singleton
    assert(Dft.valueWeight(2 * 8, 17) == 2.0)
  }

  test("DC coefficient of a z-normalized series is ~0") {
    val r = TestData.rng(27)
    val z = Series.znorm(TestData.randomSeries(r, 64))
    val spec = DftReference.full(z.map(_.toDouble))
    assert(math.abs(spec(0)) < 1e-4)
    assert(math.abs(spec(1)) < 1e-12)
  }
}
