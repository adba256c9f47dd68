package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class WordSpaceSpec extends AnyFunSuite {

  private def simpleSpace(alpha: Int = 8): QuantizedWordSpace = {
    // 1-d space over "project = the series mean" with fixed breakpoints
    val projector = new Projector {
      def project(x: Array[Float]): Array[Double] = Array(x.map(_.toDouble).sum / x.length)
    }
    val bp = Array.tabulate(alpha - 1)(i => -1.0 + 2.0 * (i + 1) / alpha)
    new QuantizedWordSpace("simple", 4, 1, alpha, Array(bp), Array(1.0), projector)
  }

  test("constructor validates alpha and table sizes") {
    val s = simpleSpace()
    assert(s.maxBits == 3)
    intercept[IllegalArgumentException] {
      new QuantizedWordSpace("bad", 4, 1, 6, Array(Array(0.0)), Array(1.0), s.projector)
    }
    intercept[IllegalArgumentException] {
      new QuantizedWordSpace("bad", 4, 1, 4, Array(Array(0.0)), Array(1.0), s.projector)
    }
  }

  test("symbolOf maps values to the correct bins") {
    val s = simpleSpace(4) // breakpoints at -0.5, 0, 0.5
    assert(s.symbolOf(0, -2.0) == 0)
    assert(s.symbolOf(0, -0.6) == 0)
    assert(s.symbolOf(0, -0.5) == 1) // half-open bins: breakpoint belongs to the upper bin
    assert(s.symbolOf(0, -0.2) == 1)
    assert(s.symbolOf(0, 0.0) == 2)
    assert(s.symbolOf(0, 0.4999) == 2)
    assert(s.symbolOf(0, 0.5) == 3)
    assert(s.symbolOf(0, 99.0) == 3)
  }

  test("symbolOf is consistent with duplicate breakpoints") {
    val bp = Array(0.0, 0.0, 0.0) // degenerate: 4 bins collapse around 0
    val s = new QuantizedWordSpace("dup", 4, 1, 4, Array(bp), Array(1.0),
      new PaaProjector(4, 1))
    val below = s.symbolOf(0, -1.0)
    val at = s.symbolOf(0, 0.0)
    val above = s.symbolOf(0, 1.0)
    assert(below == 0 && at == 3 && above == 3)
    // mindist from any value to its own symbol's interval must be 0
    for (v <- Seq(-1.0, 0.0, 1.0)) {
      val w = Array(s.symbolOf(0, v))
      assert(s.wordLbSq(Array(v), w, Double.PositiveInfinity) == 0.0)
    }
  }

  test("a value always has zero mindist to its own symbol") {
    val s = simpleSpace(8)
    val r = TestData.rng(40)
    for (_ <- 1 to 200) {
      val v = r.nextGaussian() * 2
      val w = Array(s.symbolOf(0, v))
      assert(s.wordLbSq(Array(v), w, Double.PositiveInfinity) == 0.0)
    }
  }

  test("mindist to a different symbol is positive and bounded by the true gap") {
    val s = simpleSpace(4) // bins: (-inf,-.5) [-0.5,0) [0,.5) [.5,inf)
    // query value 0.75 vs symbol 0 (hi edge -0.5): dist = 1.25
    val lb = s.wordLbSq(Array(0.75), Array(0), Double.PositiveInfinity)
    assert(math.abs(lb - 1.25 * 1.25) < 1e-12)
  }

  test("nodeLbSq at full cardinality equals wordLbSq") {
    val s = simpleSpace(8)
    val r = TestData.rng(41)
    for (_ <- 1 to 100) {
      val v = r.nextGaussian()
      val c = r.nextGaussian()
      val w = Array(s.symbolOf(0, c))
      val node = s.nodeLbSq(Array(v), w, Array(s.maxBits))
      val word = s.wordLbSq(Array(v), w, Double.PositiveInfinity)
      assert(math.abs(node - word) < 1e-12)
    }
  }

  test("nodeLbSq decreases (or stays) as bits decrease — coarser nodes are wider") {
    val s = simpleSpace(8)
    val r = TestData.rng(42)
    for (_ <- 1 to 100) {
      val v = r.nextGaussian() * 2
      val sym = s.symbolOf(0, r.nextGaussian())
      var prev = Double.PositiveInfinity
      for (bits <- s.maxBits to 0 by -1) {
        val prefix = sym >>> (s.maxBits - bits)
        val lb = s.nodeLbSq(Array(v), Array(prefix), Array(bits))
        assert(lb <= prev + 1e-12, s"bits=$bits")
        prev = lb
      }
    }
  }

  test("nodeLbSq with zero bits is always zero (unconstrained dimension)") {
    val s = simpleSpace(8)
    assert(s.nodeLbSq(Array(123.0), Array(0), Array(0)) == 0.0)
  }

  test("hot-path wordLbSq/nodeLbSq equal the generic SIMD-kernel reference") {
    val s = Isax.space(64, 8, 16)
    val r = TestData.rng(45)
    for (_ <- 1 to 200) {
      val q = Series.znorm(TestData.mixedSeries(r, 64))
      val c = Series.znorm(TestData.mixedSeries(r, 64))
      val qp = s.project(q)
      val w = s.word(c)
      val bsf = if (r.nextBoolean()) Double.PositiveInfinity
                else LbdReference.wordLbSq(s, qp, w, Double.PositiveInfinity) * r.nextDouble() * 2
      val fast = s.wordLbSq(qp, w, bsf)
      val ref = LbdReference.wordLbSq(s, qp, w, bsf)
      assert(math.abs(fast - ref) < 1e-12)
      val bits = Array.fill(s.l)(1 + r.nextInt(s.maxBits))
      val prefix = w.indices.map(j => w(j) >>> (s.maxBits - bits(j))).toArray
      assert(math.abs(s.nodeLbSq(qp, prefix, bits) - LbdReference.nodeLbSq(s, qp, prefix, bits)) < 1e-12)
    }
  }

  test("alpha above 256 is rejected: symbols are stored in a byte") {
    val e = intercept[IllegalArgumentException](Isax.space(64, 4, 512))
    assert(e.getMessage.contains("512"))
    assert(Isax.space(64, 4, 256).alpha == 256)
  }

  test("table LBD equals wordLbSq exactly — iSAX and SFA, alpha {8, 256}, infinite and abandoning bounds") {
    val n = 64
    val r = TestData.rng(46)
    val train = Array.fill(150)(Series.znorm(TestData.mixedSeries(r, n)))
    for (alpha <- Seq(8, 256); s <- Seq(Isax.space(n, 16, alpha), Sfa.fit(train, n, 16, alpha).space)) {
      var abandoned = 0
      for (_ <- 1 to 200) {
        val qp = s.project(Series.znorm(TestData.mixedSeries(r, n)))
        val words = Array.fill(3)(s.word(Series.znorm(TestData.mixedSeries(r, n))))
        val symbols = words.flatMap(_.map(_.toByte))
        val table = s.lbTable(qp)
        words.indices.foreach { i =>
          val full = s.wordLbSq(qp, words(i), Double.PositiveInfinity)
          // half the first chunk's sum: whenever that sum is positive, both
          // kernels abandon after the first chunk
          val firstChunk = s.wordLbSq(qp, words(i), 0.0)
          for (bsf <- Seq(Double.PositiveInfinity, firstChunk / 2)) {
            val want = s.wordLbSq(qp, words(i), bsf)
            assert(s.tableLbSq(table, symbols, i * s.l, bsf) == want, s"${s.name} bsf=$bsf")
            if (want < full) abandoned += 1
          }
        }
      }
      assert(abandoned > 0, s"${s.name}: no finite bound abandoned")
    }
  }

  test("projLbSq applies per-dimension weights") {
    val s = simpleSpace(8)
    assert(math.abs(s.projLbSq(Array(2.0), Array(0.5)) - 2.25) < 1e-12)
  }

  test("word chain: nodeLb <= wordLb <= weighted projection distance") {
    val s = Isax.space(64, 8, 16)
    val r = TestData.rng(43)
    for (_ <- 1 to 100) {
      val q = Series.znorm(TestData.mixedSeries(r, 64))
      val c = Series.znorm(TestData.mixedSeries(r, 64))
      val qp = s.project(q)
      val cp = s.project(c)
      val w = s.quantize(cp)
      val wordLb = s.wordLbSq(qp, w, Double.PositiveInfinity)
      val projD = s.projLbSq(qp, cp)
      assert(wordLb <= projD + 1e-9)
      // 1-bit node containing the word
      val prefix = w.map(_ >>> (s.maxBits - 1))
      val nodeLb = s.nodeLbSq(qp, prefix, Array.fill(s.l)(1))
      assert(nodeLb <= wordLb + 1e-9)
    }
  }
}
