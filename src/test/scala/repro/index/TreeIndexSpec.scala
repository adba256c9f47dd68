package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.core.{Isax, Series, Sfa}

class TreeIndexSpec extends AnyFunSuite {

  private def isaxSpace(n: Int) = Isax.space(n, 8, 256)
  private def sfaSpace(seed: Long, n: Int) = {
    val r = TestData.rng(seed)
    val train = Array.fill(150)(Series.znorm(TestData.mixedSeries(r, n)))
    Sfa.fit(train, n, l = 8, alpha = 256).space
  }

  private def buildIsax(seed: Long, count: Int, n: Int, leafCap: Int = 16) = {
    val data = TestData.dataset(seed, count, n)
    (data, TreeIndex.build(isaxSpace(n), leafCap, data.iterator))
  }

  test("build indexes every series exactly once") {
    val (data, t) = buildIsax(100, 500, 64)
    assert(t.size == data.length)
    val seen = t.allLeaves.flatMap(_.entries)
    assert(seen.size == data.length)
    assert(seen.toSet.size == data.length)
  }

  test("leaves never exceed capacity (when cardinality allows)") {
    val (_, t) = buildIsax(101, 800, 64, leafCap = 10)
    t.allLeaves.foreach { leaf =>
      assert(leaf.entries.length <= 10 || leaf.bits.forall(_ == t.space.maxBits))
    }
  }

  test("every entry's word matches its leaf's prefix at the leaf's cardinality") {
    val (_, t) = buildIsax(102, 600, 64, leafCap = 8)
    t.allLeaves.foreach { leaf =>
      leaf.entries.foreach { e =>
        val w = t.wordOf(e)
        for (j <- w.indices) {
          val expect = w(j) >>> (t.space.maxBits - leaf.bits(j))
          assert(expect == leaf.prefix(j),
            s"dim $j: word symbol ${w(j)} prefix ${leaf.prefix(j)} bits ${leaf.bits(j)}")
        }
      }
    }
  }

  test("leaf cardinalities are between 0 and maxBits per dimension") {
    val (_, t) = buildIsax(103, 400, 64, leafCap = 4)
    t.allLeaves.foreach { leaf =>
      leaf.bits.foreach(b => assert(b >= 0 && b <= t.space.maxBits))
      assert(leaf.bits.sum >= 1) // at least one split happened at cap=4 with 400 series
    }
  }

  test("structureStats counts leaves and fill consistently") {
    val (data, t) = buildIsax(104, 300, 64, leafCap = 16)
    val (leaves, depth, fill) = t.structureStats
    assert(leaves == t.allLeaves.size)
    assert(depth >= 1)
    assert(math.abs(fill * leaves - data.length) < 1e-6)
  }

  test("1-NN is exact vs brute force — iSAX space, many random instances") {
    for (seed <- 110L to 119L) {
      val (data, t) = buildIsax(seed, 400, 64, leafCap = 16)
      val r = TestData.rng(seed + 5000)
      for (_ <- 1 to 10) {
        val q = TestData.mixedSeries(r, 64)
        TestData.assertSameKnn(t.search(q, 1), TestData.bruteKnn(data.toIndexedSeq, q, 1))
      }
    }
  }

  test("1-NN is exact vs brute force — SFA space, many random instances") {
    for (seed <- 120L to 129L) {
      val n = 64
      val space = sfaSpace(seed, n)
      val data = TestData.dataset(seed, 400, n)
      val t = TreeIndex.build(space, 16, data.iterator)
      val r = TestData.rng(seed + 6000)
      for (_ <- 1 to 10) {
        val q = TestData.mixedSeries(r, n)
        TestData.assertSameKnn(t.search(q, 1), TestData.bruteKnn(data.toIndexedSeq, q, 1))
      }
    }
  }

  test("k-NN is exact vs brute force for k in {1, 3, 5, 10, 50}") {
    val (data, t) = buildIsax(130, 500, 64, leafCap = 20)
    val r = TestData.rng(131)
    for (k <- Seq(1, 3, 5, 10, 50); _ <- 1 to 5) {
      val q = TestData.mixedSeries(r, 64)
      val got = t.search(q, k)
      val want = TestData.bruteKnn(data.toIndexedSeq, q, k)
      assert(got.length == k)
      TestData.assertSameKnn(got, want)
    }
  }

  test("k larger than the dataset returns everything, sorted") {
    val (data, t) = buildIsax(132, 20, 64)
    val q = TestData.mixedSeries(TestData.rng(133), 64)
    val got = t.search(q, 100)
    assert(got.length == data.length)
    got.sliding(2).foreach(w => assert(w(0)._2 <= w(1)._2 + 1e-12))
  }

  test("searching for an indexed series returns it at distance ~0") {
    val (data, t) = buildIsax(134, 300, 64)
    for (i <- Seq(0, 7, 150, 299)) {
      val res = t.search(data(i)._2, 1)
      assert(res.head._2 < 1e-3)
    }
  }

  test("empty index returns empty results") {
    val t = TreeIndex.build(isaxSpace(64), 8, Iterator.empty)
    assert(t.search(TestData.mixedSeries(TestData.rng(135), 64), 1).isEmpty)
    assert(t.structureStats == ((0, 0, 0.0)))
    assert(t.allLeaves.isEmpty)
  }

  test("k = 0 returns empty") {
    val (_, t) = buildIsax(136, 50, 64)
    assert(t.search(TestData.mixedSeries(TestData.rng(137), 64), 0).isEmpty)
  }

  test("single-series index") {
    val data = TestData.dataset(138, 1, 64)
    val t = TreeIndex.build(isaxSpace(64), 8, data.iterator)
    val res = t.search(TestData.mixedSeries(TestData.rng(139), 64), 3)
    assert(res.length == 1 && res.head._1 == data.head._1)
  }

  test("duplicate series are all indexed and returned") {
    val base = TestData.mixedSeries(TestData.rng(140), 64)
    val copies = Array.tabulate(10)(i => (i.toLong, base.clone()))
    // constant series z-normalize to all zeros, so they share one word too
    val constants = Array.tabulate(6)(i => ((10 + i).toLong, Array.fill(64)(i - 2.5f)))
    val data = (copies ++ constants).reverse // not in id order
    val t = TreeIndex.build(isaxSpace(64), 4, data.iterator)
    val maxBits = t.space.maxBits
    for (group <- Seq(copies, constants)) {
      val ids = group.map(_._1).toSet
      val leaves = t.allLeaves.filter(_.entries.exists(e => ids(t.idOf(e))))
      assert(leaves.size == 1)
      assert(leaves.head.entries.map(t.idOf).toSet == ids)
      assert(leaves.head.bits.forall(_ == maxBits)) // an overflow leaf
    }
    assert(t.structureStats._2 == t.space.l * maxBits + 1)
    val res = t.search(base, 10)
    assert(res.map(_._1).toSeq == copies.map(_._1).toSeq)
    res.foreach { case (_, d) => assert(d < 1e-5) }
  }

  test("a node splits on the dimension chosen over its first leafCapacity + 1 series") {
    // n = l = 4 and alpha = 2: each symbol is the sign of one value. Over the
    // first three series, dimension 1 is balanced and dimension 0 is not; over
    // all four, both are balanced and dimension 0 would win the tie.
    val signs = Seq(
      1L -> Array(1f, 1f, 1f, -1f),
      2L -> Array(1f, -1f, 1f, -1f),
      3L -> Array(-1f, -1f, 1f, -1f),
      4L -> Array(-1f, 1f, 1f, -1f),
    )
    val t = TreeIndex.build(Isax.space(4, 4, 2), 2, signs.iterator)
    val leaves = t.allLeaves.map(leaf => (leaf.bits.toSeq, leaf.prefix.toSeq, leaf.entries, leaf.entries.map(t.idOf)))
    assert(leaves == Seq(
      (Seq(0, 1, 0, 0), Seq(0, 0, 0, 0), 0 until 2, Seq(2L, 3L)),
      (Seq(0, 1, 0, 0), Seq(0, 1, 0, 0), 2 until 4, Seq(1L, 4L)),
    ))
  }

  test("results are deterministic across repeated searches") {
    val (_, t) = buildIsax(141, 300, 64)
    val q = TestData.mixedSeries(TestData.rng(142), 64)
    val a = t.search(q, 5)
    val b = t.search(q, 5)
    assert(a.map(_._1).sameElements(b.map(_._1)))
  }

  test("tiny leaf capacity still yields exact results (deep tree)") {
    val (data, t) = buildIsax(143, 400, 64, leafCap = 1)
    val r = TestData.rng(144)
    for (_ <- 1 to 10) {
      val q = TestData.mixedSeries(r, 64)
      TestData.assertSameKnn(t.search(q, 3), TestData.bruteKnn(data.toIndexedSeq, q, 3))
    }
  }

  test("exactness holds with non-divisible series length (n=100)") {
    val n = 100
    val data = TestData.dataset(145, 300, n)
    val t = TreeIndex.build(Isax.space(n, 16, 256), 16, data.iterator)
    val r = TestData.rng(146)
    for (_ <- 1 to 10) {
      val q = TestData.mixedSeries(r, n)
      TestData.assertSameKnn(t.search(q, 1), TestData.bruteKnn(data.toIndexedSeq, q, 1))
    }
  }

  test("a series of the wrong length is rejected with its id and both lengths") {
    val data = TestData.dataset(154, 5, 64) :+ (77L, new Array[Float](63))
    val e = intercept[IllegalArgumentException](TreeIndex.build(isaxSpace(64), 8, data.iterator))
    assert(e.getMessage.contains("77") && e.getMessage.contains("63") && e.getMessage.contains("64"))
  }

  test("exactness with SFA equi-depth binning") {
    val n = 64
    val r = TestData.rng(147)
    val train = Array.fill(150)(Series.znorm(TestData.mixedSeries(r, n)))
    val space = Sfa.fit(train, n, l = 8, alpha = 256, binning = Sfa.EquiDepth).space
    val data = TestData.dataset(148, 400, n)
    val t = TreeIndex.build(space, 16, data.iterator)
    for (_ <- 1 to 10) {
      val q = TestData.mixedSeries(r, n)
      TestData.assertSameKnn(t.search(q, 2), TestData.bruteKnn(data.toIndexedSeq, q, 2))
    }
  }
}
