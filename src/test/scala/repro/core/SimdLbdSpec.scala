package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class SimdLbdSpec extends AnyFunSuite {

  private def randomBoxes(seed: Long, l: Int): (Array[Double], Array[Double], Array[Double], Array[Double]) = {
    val r = TestData.rng(seed)
    val qp = Array.fill(l)(r.nextGaussian() * 2)
    val lo = new Array[Double](l)
    val hi = new Array[Double](l)
    for (i <- 0 until l) {
      val a = r.nextGaussian(); val b = r.nextGaussian()
      lo(i) = math.min(a, b); hi(i) = math.max(a, b)
    }
    val w = Array.fill(l)(0.5 + 2 * r.nextDouble())
    (qp, lo, hi, w)
  }

  test("chunked kernel equals the branchy reference without abandoning") {
    for (seed <- 1L to 50L; l <- Seq(1, 7, 8, 9, 16, 31)) {
      val (qp, lo, hi, w) = randomBoxes(seed * 100 + l, l)
      val got = LbdReference.minDistSq(qp, lo, hi, w, Double.PositiveInfinity)
      val want = LbdReference.minDistSqReference(qp, lo, hi, w)
      assert(math.abs(got - want) < 1e-12, s"seed=$seed l=$l")
    }
  }

  test("values inside their boxes contribute zero") {
    val l = 16
    val qp = Array.fill(l)(0.0)
    val lo = Array.fill(l)(-1.0)
    val hi = Array.fill(l)(1.0)
    val w = Array.fill(l)(2.0)
    assert(LbdReference.minDistSq(qp, lo, hi, w, Double.PositiveInfinity) == 0.0)
  }

  test("boundary values: lower edge is inside, upper edge is outside-by-zero") {
    val qp = Array(-1.0, 1.0)
    val lo = Array(-1.0, -1.0)
    val hi = Array(1.0, 1.0)
    val w = Array(1.0, 1.0)
    assert(LbdReference.minDistSq(qp, lo, hi, w, Double.PositiveInfinity) == 0.0)
  }

  test("UPPER and LOWER branches compute the edge distance") {
    val qp = Array(3.0, -4.0)
    val lo = Array(-1.0, -1.0)
    val hi = Array(1.0, 1.0)
    val w = Array(2.0, 1.0)
    // above: (3-1)^2 * 2 = 8 ; below: (-1 - -4)^2 * 1 = 9
    assert(math.abs(LbdReference.minDistSq(qp, lo, hi, w, Double.PositiveInfinity) - 17.0) < 1e-12)
  }

  test("infinite box edges never contribute") {
    val qp = Array(100.0, -100.0)
    val lo = Array(Double.NegativeInfinity, Double.NegativeInfinity)
    val hi = Array(Double.PositiveInfinity, Double.PositiveInfinity)
    val w = Array(2.0, 2.0)
    assert(LbdReference.minDistSq(qp, lo, hi, w, Double.PositiveInfinity) == 0.0)
  }

  test("early abandoning: a result below bsf is always the exact distance") {
    for (seed <- 1L to 100L) {
      val (qp, lo, hi, w) = randomBoxes(seed, 24)
      val exact = LbdReference.minDistSqReference(qp, lo, hi, w)
      val bsf = exact * (0.25 + (seed % 7) * 0.25) // thresholds around exact
      val got = LbdReference.minDistSq(qp, lo, hi, w, bsf)
      if (got < bsf) assert(math.abs(got - exact) < 1e-12)
      else assert(exact >= got - 1e-12 || got > bsf) // abandoned early: partial sum <= exact
    }
  }

  test("early abandoning triggers at a chunk boundary, not before completing the chunk") {
    val l = 16
    val qp = Array.fill(l)(10.0)
    val lo = Array.fill(l)(-1.0)
    val hi = Array.fill(l)(1.0)
    val w = Array.fill(l)(1.0)
    // each lane contributes 81; chunk of 8 -> 648 > bsf 1 -> abandon after chunk 1
    val got = LbdReference.minDistSq(qp, lo, hi, w, 1.0)
    assert(math.abs(got - 648.0) < 1e-12)
  }

  test("abandoned result is always a lower bound of the exact distance") {
    for (seed <- 200L to 260L) {
      val (qp, lo, hi, w) = randomBoxes(seed, 32)
      val exact = LbdReference.minDistSqReference(qp, lo, hi, w)
      val got = LbdReference.minDistSq(qp, lo, hi, w, exact / 8)
      assert(got <= exact + 1e-12)
    }
  }
}
