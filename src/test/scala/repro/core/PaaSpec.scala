package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class PaaSpec extends AnyFunSuite {

  test("bounds cover [0, n) without gaps for divisible and non-divisible lengths") {
    for ((n, l) <- Seq((64, 16), (100, 16), (96, 16), (7, 3), (10, 10))) {
      val b = Paa.bounds(n, l)
      assert(b.head == 0 && b.last == n)
      b.sliding(2).foreach(w => assert(w(0) < w(1), s"empty segment for n=$n l=$l"))
      assert(Paa.segmentLengths(n, l).sum == n)
    }
  }

  test("bounds rejects invalid l") {
    intercept[IllegalArgumentException](Paa.bounds(8, 0))
    intercept[IllegalArgumentException](Paa.bounds(8, 9))
  }

  test("transform computes per-segment means (divisible case)") {
    val x = Array.tabulate(8)(_.toFloat) // 0..7
    val p = Paa.transform(x, 4)
    assert(p.sameElements(Array(0.5, 2.5, 4.5, 6.5)))
  }

  test("transform of a constant series is constant") {
    val p = Paa.transform(Array.fill(100)(2.5f), 16)
    p.foreach(v => assert(math.abs(v - 2.5) < 1e-6))
  }

  test("transform with l = n is the identity") {
    val r = TestData.rng(30)
    val x = TestData.randomSeries(r, 20)
    val p = Paa.transform(x, 20)
    x.zip(p).foreach { case (a, b) => assert(math.abs(a - b) < 1e-6) }
  }

  test("PAA distance lower-bounds ED (divisible length)") {
    val r = TestData.rng(31)
    for (_ <- 1 to 100) {
      val a = TestData.mixedSeries(r, 64)
      val b = TestData.mixedSeries(r, 64)
      val lb = Paa.lbSq(Paa.transform(a, 8), Paa.transform(b, 8), Paa.segmentLengths(64, 8))
      assert(lb <= Series.edSq(a, b) + 1e-6)
    }
  }

  test("PAA distance lower-bounds ED (non-divisible length)") {
    val r = TestData.rng(32)
    for (_ <- 1 to 100) {
      val a = TestData.mixedSeries(r, 100)
      val b = TestData.mixedSeries(r, 100)
      val lb = Paa.lbSq(Paa.transform(a, 16), Paa.transform(b, 16), Paa.segmentLengths(100, 16))
      assert(lb <= Series.edSq(a, b) + 1e-6)
    }
  }

  test("PAA lower bound tightens as l grows") {
    val r = TestData.rng(33)
    var looser = 0.0; var tighter = 0.0
    for (_ <- 1 to 50) {
      val a = TestData.mixedSeries(r, 64)
      val b = TestData.mixedSeries(r, 64)
      looser += Paa.lbSq(Paa.transform(a, 4), Paa.transform(b, 4), Paa.segmentLengths(64, 4))
      tighter += Paa.lbSq(Paa.transform(a, 32), Paa.transform(b, 32), Paa.segmentLengths(64, 32))
    }
    assert(tighter >= looser)
  }

  test("PAA flat-lines high-frequency signals (the paper's Figure 1 failure mode)") {
    // a full-rate alternating signal has PAA == 0 everywhere at l = 8
    val x = Array.tabulate(64)(i => if (i % 2 == 0) 1.0f else -1.0f)
    val p = Paa.transform(x, 8)
    p.foreach(v => assert(math.abs(v) < 1e-7))
    // while the DFT captures its energy at the Nyquist frequency
    val spec = DftReference.full(x.map(_.toDouble))
    assert(math.abs(spec(64)) > 1.0) // Re at k = n/2
  }
}
