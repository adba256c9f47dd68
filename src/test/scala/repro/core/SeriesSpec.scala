package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class SeriesSpec extends AnyFunSuite {

  test("znorm produces zero mean and unit std") {
    val r = TestData.rng(1)
    for (_ <- 1 to 20) {
      val x = TestData.randomSeries(r, 64)
      val z = Series.znorm(x)
      val mean = z.map(_.toDouble).sum / z.length
      val varr = z.map(v => v * v).sum / z.length - mean * mean
      assert(math.abs(mean) < 1e-5)
      assert(math.abs(varr - 1.0) < 1e-4)
    }
  }

  test("znorm of a constant series is all zeros") {
    val z = Series.znorm(Array.fill(16)(3.5f))
    assert(z.forall(_ == 0.0f))
  }

  test("znorm maps a series holding NaN or an infinity to all NaN; znormFinite names it") {
    val x = TestData.randomSeries(TestData.rng(4), 32)
    for (bad <- Seq(Seq(Float.NaN), Seq(Float.PositiveInfinity), Seq(Float.NegativeInfinity),
                    Seq(Float.PositiveInfinity, Float.NegativeInfinity))) {
      val y = x.clone()
      bad.zipWithIndex.foreach { case (v, i) => y(3 + 7 * i) = v }
      assert(Series.znorm(y).forall(_.isNaN), bad)
      val err = intercept[IllegalArgumentException](Series.znormFinite(5L, y))
      assert(err.getMessage.contains("series 5 has a NaN or infinite value"))
    }
    assert(Series.znormFinite(5L, x).sameElements(Series.znorm(x)))
    assert(Series.znormFinite(5L, Array.fill(8)(Float.MaxValue)).forall(_ == 0.0f))
  }

  test("znorm is invariant to affine transforms of the input") {
    val r = TestData.rng(2)
    val x = TestData.randomSeries(r, 100)
    val y = x.map(v => v * 7.5f + 3.0f)
    val zx = Series.znorm(x)
    val zy = Series.znorm(y)
    zx.zip(zy).foreach { case (a, b) => assert(math.abs(a - b) < 1e-4) }
  }

  test("znorm flips sign under negation") {
    val r = TestData.rng(3)
    val x = TestData.randomSeries(r, 50)
    val zx = Series.znorm(x)
    val zn = Series.znorm(x.map(-_))
    zx.zip(zn).foreach { case (a, b) => assert(math.abs(a + b) < 1e-5) }
  }

  test("edSq of identical series is zero") {
    val r = TestData.rng(4)
    val x = TestData.randomSeries(r, 32)
    assert(Series.edSq(x, x) == 0.0)
  }

  test("edSq is symmetric") {
    val r = TestData.rng(5)
    for (_ <- 1 to 20) {
      val a = TestData.randomSeries(r, 48)
      val b = TestData.randomSeries(r, 48)
      assert(math.abs(Series.edSq(a, b) - Series.edSq(b, a)) < 1e-9)
    }
  }

  test("ed satisfies the triangle inequality") {
    val r = TestData.rng(6)
    for (_ <- 1 to 50) {
      val a = TestData.randomSeries(r, 32)
      val b = TestData.randomSeries(r, 32)
      val c = TestData.randomSeries(r, 32)
      assert(EdReference.ed(a, c) <= EdReference.ed(a, b) + EdReference.ed(b, c) + 1e-9)
    }
  }

  test("edSq matches a naive definition") {
    val r = TestData.rng(7)
    val a = TestData.randomSeries(r, 77)
    val b = TestData.randomSeries(r, 77)
    val naive = a.zip(b).map { case (x, y) => (x.toDouble - y) * (x.toDouble - y) }.sum
    assert(math.abs(Series.edSq(a, b) - naive) < 1e-9)
  }

  test("edSq rejects length mismatch") {
    intercept[IllegalArgumentException] {
      Series.edSq(new Array[Float](4), new Array[Float](5))
    }
  }

  test("early-abandoning edSq equals full edSq when below the threshold") {
    val r = TestData.rng(8)
    for (_ <- 1 to 50) {
      val a = TestData.randomSeries(r, 100)
      val b = TestData.randomSeries(r, 100)
      val full = Series.edSq(a, b)
      val ea = Series.edSqEarlyAbandon(a, b, full + 1.0)
      assert(math.abs(ea - full) < 1e-9)
    }
  }

  test("early-abandoning edSq returns a value above bsf when it abandons") {
    val r = TestData.rng(9)
    for (_ <- 1 to 50) {
      val a = TestData.randomSeries(r, 100)
      val b = TestData.randomSeries(r, 100)
      val full = Series.edSq(a, b)
      val ea = Series.edSqEarlyAbandon(a, b, full / 4)
      // abandoned or not, the result is never an underestimate decision-wise:
      if (ea < full / 4) assert(math.abs(ea - full) < 1e-9)
      else assert(ea > full / 4)
    }
  }

  test("early abandon with bsf = 0 abandons within the first chunk") {
    val a = Array.fill(64)(0.0f)
    val b = Array.fill(64)(1.0f)
    val ea = Series.edSqEarlyAbandon(a, b, 0.0)
    assert(ea >= 8.0 - 1e-9 && ea <= 9.0) // one chunk of 8 lanes, each diff 1
  }

  test("offset early-abandoning edSq equals edSqEarlyAbandon exactly") {
    val r = TestData.rng(7)
    for (n <- Seq(1, 7, 8, 9, 15, 16, 17, 64, 100, 128, 256)) {
      val q = TestData.randomSeries(r, n)
      val xs = Array.fill(4)(TestData.randomSeries(r, n))
      val flat = Array.fill(3)(0.5f) ++ xs.flatten
      xs.indices.foreach { i =>
        val full = Series.edSq(q, xs(i))
        // the partial sum at the last chunk boundary before the end
        val atChunk = Series.edSq(q.take((n - 1) & ~7), xs(i).take((n - 1) & ~7))
        for (bsf <- Seq(Double.PositiveInfinity, full, full / 3, 0.0, atChunk)) {
          val want = EdReference.edSqEarlyAbandon(q, xs(i), bsf)
          assert(Series.edSqEarlyAbandonAt(q, flat, 3 + i * n, bsf) == want, s"n=$n i=$i bsf=$bsf")
          assert(Series.edSqEarlyAbandon(q, xs(i), bsf) == want, s"n=$n i=$i bsf=$bsf")
        }
      }
    }
  }

  test("offset early-abandoning edSq rejects a series outside the array") {
    val q = TestData.randomSeries(TestData.rng(12), 9)
    val flat = new Array[Float](20)
    assert(Series.edSqEarlyAbandonAt(q, flat, 11, Double.PositiveInfinity) == Series.edSq(q, new Array[Float](9)))
    for (off <- Seq(-1, 12, 20, Int.MaxValue)) {
      val err = intercept[IllegalArgumentException](Series.edSqEarlyAbandonAt(q, flat, off, Double.PositiveInfinity))
      assert(err.getMessage.contains(s"offset $off"), err.getMessage)
    }
  }

  test("zEdSq equals edSq on pre-normalized inputs") {
    val r = TestData.rng(10)
    val a = Series.znorm(TestData.randomSeries(r, 60))
    val b = Series.znorm(TestData.randomSeries(r, 60))
    assert(math.abs(EdReference.zEdSq(a, b) - Series.edSq(a, b)) < 1e-4)
  }

  test("z-ED of scaled/shifted copies of the same shape is ~0") {
    val r = TestData.rng(11)
    val x = TestData.randomSeries(r, 128)
    val y = x.map(v => v * 4.0f - 2.0f)
    assert(math.sqrt(EdReference.zEdSq(x, y)) < 1e-2)
  }
}
