package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData

class SfaSpec extends AnyFunSuite {

  private def sample(seed: Long, count: Int, n: Int): Array[Array[Float]] = {
    val r = TestData.rng(seed)
    Array.fill(count)(Series.znorm(TestData.mixedSeries(r, n)))
  }

  test("candidateValueIndices excludes DC and zero-weight values") {
    val cand = Sfa.candidateValueIndices(64, 32)
    assert(!cand.contains(0) && !cand.contains(1))
    assert(cand.forall(vi => Dft.valueWeight(vi, 64) > 0))
    // coefficients 1..32, Nyquist (k=32) real part included, imag excluded
    assert(cand.contains(64) && !cand.contains(65))
    assert(cand.length == 2 * 31 + 1)
  }

  test("candidateValueIndices clips at the half spectrum") {
    val cand = Sfa.candidateValueIndices(16, 32)
    assert(cand.max <= 2 * 8)
  }

  test("fitStats computes sane variance/min/max/quantiles") {
    val s = sample(60, 200, 64)
    val stats = Sfa.fitStats(s, 64, maxCoeff = 16)
    stats.cols.foreach { cs =>
      assert(cs.variance >= 0)
      assert(cs.min <= cs.max)
      assert(cs.quantiles.length == Sfa.QuantileLevels - 1)
      cs.quantiles.sliding(2).foreach(w => assert(w(0) <= w(1)))
      assert(cs.quantiles.head >= cs.min - 1e-9 && cs.quantiles.last <= cs.max + 1e-9)
    }
  }

  test("fit validates inputs") {
    intercept[IllegalArgumentException](Sfa.fitStats(Array.empty, 64))
    intercept[IllegalArgumentException](Sfa.fitStats(sample(61, 5, 32), 64))
  }

  test("variance selection picks the dominant frequency of a sinusoid family") {
    // family of sinusoids at frequency 9 with random phases: variance concentrates
    // in coefficient 9's real/imag values
    val r = TestData.rng(62)
    val n = 64
    val s = Array.fill(300) {
      val p = r.nextDouble() * 2 * math.Pi
      Series.znorm(Array.tabulate(n)(i => (math.sin(2 * math.Pi * 9 * i / n + p)).toFloat))
    }
    val model = Sfa.fit(s, n, l = 2, alpha = 8, maxCoeff = 16)
    assert(model.bestIdx.toSet == Set(18, 19)) // Re/Im of coefficient 9
  }

  test("FirstL selection keeps the lowest coefficients in order") {
    val s = sample(63, 100, 64)
    val model = Sfa.fit(s, 64, l = 4, alpha = 8, selection = Sfa.FirstL)
    assert(model.bestIdx.sameElements(Array(2, 3, 4, 5)))
  }

  test("ByVariance orders selected values by decreasing variance") {
    val s = sample(64, 200, 64)
    val stats = Sfa.fitStats(s, 64)
    val model = Sfa.modelFromStats(stats, 8, 16)
    val varOf = stats.cols.map(c => c.vi -> c.variance).toMap
    val vs = model.bestIdx.map(varOf)
    vs.sliding(2).foreach(w => assert(w(0) >= w(1) - 1e-12))
  }

  test("equi-width breakpoints are uniform over [min, max]") {
    val s = sample(65, 200, 64)
    val stats = Sfa.fitStats(s, 64)
    val model = Sfa.modelFromStats(stats, 4, 16, Sfa.EquiWidth)
    model.bestIdx.zip(model.breakpoints).foreach { case (vi, bp) =>
      val cs = stats.cols.find(_.vi == vi).get
      val width = (cs.max - cs.min) / 16
      bp.zipWithIndex.foreach { case (b, i) =>
        assert(math.abs(b - (cs.min + (i + 1) * width)) < 1e-9)
      }
    }
  }

  test("equi-depth bins have roughly equal occupancy on the training sample") {
    val s = sample(66, 1000, 64)
    val model = Sfa.fit(s, 64, l = 1, alpha = 4, binning = Sfa.EquiDepth)
    val space = model.space
    val counts = new Array[Int](4)
    s.foreach(x => counts(space.word(x)(0)) += 1)
    counts.foreach(c => assert(c > 100, s"unbalanced bins: ${counts.mkString(",")}"))
  }

  test("equi-depth bins for alpha nest dyadically inside alpha*2") {
    val s = sample(67, 500, 64)
    val stats = Sfa.fitStats(s, 64)
    val coarse = Sfa.modelFromStats(stats, 4, 8, Sfa.EquiDepth)
    val fine = Sfa.modelFromStats(stats, 4, 16, Sfa.EquiDepth)
    coarse.breakpoints.zip(fine.breakpoints).foreach { case (c, f) =>
      c.indices.foreach(i => assert(c(i) == f(2 * i + 1)))
    }
  }

  test("SFA LBD lower-bounds the true ED — both binnings, several lengths") {
    for ((n, seed) <- Seq((64, 70L), (100, 71L), (128, 72L));
         binning <- Seq(Sfa.EquiWidth, Sfa.EquiDepth)) {
      val train = sample(seed, 300, n)
      val model = Sfa.fit(train, n, l = 8, alpha = 16, binning = binning)
      val space = model.space
      val r = TestData.rng(seed + 1000)
      for (_ <- 1 to 200) {
        // out-of-sample pairs: bins must still lower-bound via the +/- inf edges
        val q = Series.znorm(TestData.mixedSeries(r, n))
        val c = Series.znorm(TestData.mixedSeries(r, n))
        val lb = space.wordLbSq(space.project(q), space.word(c), Double.PositiveInfinity)
        assert(lb <= Series.edSq(q, c) + 1e-6, s"n=$n binning=$binning")
      }
    }
  }

  test("SFA DFT (projection) distance lower-bounds ED and upper-bounds the word LBD") {
    val n = 64
    val train = sample(73, 300, n)
    val space = Sfa.fit(train, n, l = 8, alpha = 32).space
    val r = TestData.rng(74)
    for (_ <- 1 to 200) {
      val q = Series.znorm(TestData.mixedSeries(r, n))
      val c = Series.znorm(TestData.mixedSeries(r, n))
      val qp = space.project(q)
      val cp = space.project(c)
      val projD = space.projLbSq(qp, cp)
      val wordLb = space.wordLbSq(qp, space.quantize(cp), Double.PositiveInfinity)
      assert(projD <= Series.edSq(q, c) + 1e-6)
      assert(wordLb <= projD + 1e-9)
    }
  }

  test("SFA node-level LBD lower-bounds the word LBD at all cardinalities") {
    val n = 64
    val space = Sfa.fit(sample(75, 200, n), n, l = 8, alpha = 256).space
    val r = TestData.rng(76)
    for (_ <- 1 to 50) {
      val q = Series.znorm(TestData.mixedSeries(r, n))
      val c = Series.znorm(TestData.mixedSeries(r, n))
      val qp = space.project(q)
      val w = space.word(c)
      val wordLb = space.wordLbSq(qp, w, Double.PositiveInfinity)
      for (bits <- 0 to space.maxBits) {
        val prefix = w.map(_ >>> (space.maxBits - bits))
        assert(space.nodeLbSq(qp, prefix, Array.fill(space.l)(bits)) <= wordLb + 1e-9)
      }
    }
  }

  test("SFA captures high-frequency signals better than iSAX (mean TLB)") {
    // the paper's core claim, in miniature: high-frequency sinusoid family
    val r = TestData.rng(77)
    val n = 128
    def hf() = Series.znorm(Array.tabulate(n) { i =>
      (math.sin(2 * math.Pi * 45 * i / n + r.nextDouble() * 6) + 0.3 * r.nextGaussian()).toFloat
    })
    val train = Array.fill(300)(hf())
    val sfa = Sfa.fit(train, n, l = 8, alpha = 16).space
    val isax = Isax.space(n, 8, 16)
    var sfaTlb = 0.0; var isaxTlb = 0.0; var cnt = 0
    for (_ <- 1 to 100) {
      val q = hf(); val c = hf()
      val ed = math.sqrt(Series.edSq(q, c))
      if (ed > 1e-9) {
        sfaTlb += math.sqrt(sfa.wordLbSq(sfa.project(q), sfa.word(c), Double.PositiveInfinity)) / ed
        isaxTlb += math.sqrt(isax.wordLbSq(isax.project(q), isax.word(c), Double.PositiveInfinity)) / ed
        cnt += 1
      }
    }
    assert(sfaTlb / cnt > isaxTlb / cnt,
      s"SFA TLB ${sfaTlb / cnt} should beat iSAX TLB ${isaxTlb / cnt} on high-frequency data")
  }

  test("modelFromStats validates alpha and l") {
    val stats = Sfa.fitStats(sample(78, 50, 32), 32, maxCoeff = 8)
    intercept[IllegalArgumentException](Sfa.modelFromStats(stats, 4, 3))
    intercept[IllegalArgumentException](Sfa.modelFromStats(stats, 4, 512))
    intercept[IllegalArgumentException](Sfa.modelFromStats(stats, 1000, 8))
  }

  test("SFA transform is deterministic") {
    val train = sample(79, 100, 64)
    val m1 = Sfa.fit(train, 64)
    val m2 = Sfa.fit(train, 64)
    assert(m1.bestIdx.sameElements(m2.bestIdx))
    val x = Series.znorm(TestData.mixedSeries(TestData.rng(80), 64))
    assert(m1.space.word(x).sameElements(m2.space.word(x)))
  }

  test("an SFA space serializes small and projects identically after a round trip") {
    val n = 256
    val r = TestData.rng(71)
    val space = Sfa.fit(Array.fill(100)(Series.znorm(TestData.mixedSeries(r, n))), n, maxCoeff = 32).space
    val xs = Array.fill(5)(Series.znorm(TestData.mixedSeries(r, n)))
    val before = xs.map(space.project)
    val buf = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(buf)
    out.writeObject(space); out.close()
    assert(buf.size < 40000, s"serialized SFA space is ${buf.size} bytes")
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(buf.toByteArray))
      .readObject().asInstanceOf[QuantizedWordSpace]
    xs.indices.foreach(i => assert(back.project(xs(i)).sameElements(before(i))))
  }
}
