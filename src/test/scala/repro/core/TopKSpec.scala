package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TopKSpec extends AnyFunSuite {

  test("keeps the k smallest (distance, id) pairs in that order, ties included") {
    val r = new java.util.Random(7)
    for (_ <- 1 to 200) {
      val n = r.nextInt(60)
      // few distinct distances, so most pairs tie on distance
      val pairs = Array.fill(n)((r.nextInt(5).toDouble, r.nextInt(1000).toLong))
      for (k <- Seq(1, 2, 7, 100)) {
        val top = new TopK(k)
        pairs.foreach { case (d, id) => top.offer(d, id) }
        val want = pairs.sortBy(identity).take(k).map { case (d, id) => (id, math.sqrt(d)) }
        assert(top.drain().sameElements(want))
      }
    }
  }

  test("boundSq is +Inf until k pairs are kept, then the k-th distance") {
    val top = new TopK(2)
    top.offer(4.0, 9)
    assert(top.boundSq == Double.PositiveInfinity)
    top.offer(1.0, 3)
    assert(top.boundSq == 4.0)
    top.offer(4.0, 2) // a tie with a smaller id replaces the worst
    assert(top.drain().sameElements(Array((3L, 1.0), (2L, 2.0))))
  }
}
