package repro.spark

import repro.{SparkSpec, TestData}
import repro.core.{Isax, Series, SeriesRecord, Sfa}

class DistributedIndexSpec extends SparkSpec {

  private def toDs(data: Array[(Long, Array[Float])]) = {
    import spark.implicits._
    spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
  }

  test("distributed 1-NN equals brute force across several partition counts") {
    val n = 64
    val data = TestData.dataset(200, 600, n)
    val ds = toDs(data)
    for (p <- Seq(1, 3, 8)) {
      val idx = DistributedIndex.build("MESSI", ds, Isax.space(n, 8, 256), 32, p)
      try {
        val r = TestData.rng(201)
        for (_ <- 1 to 5) {
          val q = TestData.mixedSeries(r, n)
          TestData.assertSameKnn(idx.search(q, 1), TestData.bruteKnn(data.toIndexedSeq, q, 1))
        }
      } finally idx.close()
    }
  }

  test("distributed k-NN merges per-partition results exactly") {
    val n = 64
    val data = TestData.dataset(202, 500, n)
    val ds = toDs(data)
    val idx = DistributedIndex.build("MESSI", ds, Isax.space(n, 8, 256), 32, 4)
    try {
      val r = TestData.rng(203)
      for (k <- Seq(3, 10, 25); _ <- 1 to 3) {
        val q = TestData.mixedSeries(r, n)
        TestData.assertSameKnn(idx.search(q, k), TestData.bruteKnn(data.toIndexedSeq, q, k))
      }
    } finally idx.close()
  }

  test("every partition contributes: ids from all partitions are reachable") {
    val n = 64
    val data = TestData.dataset(206, 300, n)
    val ds = toDs(data)
    val idx = DistributedIndex.build("MESSI", ds, Isax.space(n, 8, 256), 32, 5)
    try {
      // query with k = all: must return every id exactly once
      val q = TestData.mixedSeries(TestData.rng(207), n)
      val all = idx.search(q, data.length)
      assert(all.length == data.length)
      assert(all.map(_._1).toSet == data.map(_._1).toSet)
    } finally idx.close()
  }

  test("structureStats aggregates over partitions") {
    val n = 64
    val ds = toDs(TestData.dataset(208, 400, n))
    val idx = DistributedIndex.build("MESSI", ds, Isax.space(n, 8, 256), 16, 4)
    try {
      val (leaves, depth, fill) = idx.structureStats
      assert(leaves > 0 && depth >= 1 && fill > 0)
      assert(math.abs(fill * leaves - 400) < 1e-6)
    } finally idx.close()
  }

  test("searchBatch equals brute force — MESSI and SOFA spaces, partitions {1, 3, 8}, k {1, 3, 10}") {
    val n = 64
    val data = TestData.dataset(210, 400, n)
    val ds = toDs(data)
    val sfa = Sfa.fit(data.take(150).map(d => Series.znorm(d._2)), n, l = 8, alpha = 256).space
    val r = TestData.rng(211)
    val q = TestData.mixedSeries(r, n)
    // the same query twice, and a stored series (its own NN at distance 0)
    val batch = Seq(q, data(17)._2, TestData.mixedSeries(r, n), q)
    for (space <- Seq(Isax.space(n, 8, 256), sfa); p <- Seq(1, 3, 8)) {
      val idx = DistributedIndex.build(space.name, ds, space, 32, p)
      try {
        for (k <- Seq(1, 3, 10)) {
          val got = idx.searchBatch(batch, k)
          assert(got.length == batch.length)
          batch.zip(got).foreach { case (bq, g) =>
            TestData.assertSameKnn(g, TestData.bruteKnn(data.toIndexedSeq, bq, k))
          }
          assert(got(1).head._1 == 17L && got(1).head._2 < 1e-3)
          assert(got(0).sameElements(got(3)))
        }
      } finally idx.close()
    }
  }

  test("no Spark job in-process, one on the job path — SOFA and MESSI") {
    val n = 64
    val data = TestData.dataset(212, 300, n)
    val ds = toDs(data)
    val cfg = IndexConfig(leafCapacity = 32, partitions = 3, sampleRate = 0.5)
    val engines = Seq(EngineFactory.sofa(ds, n, cfg), EngineFactory.messi(ds, n, cfg))
    try {
      val r = TestData.rng(213)
      val batch = Seq.fill(5)(TestData.mixedSeries(r, n))
      engines.foreach { e =>
        assert(jobsRun(e.search(batch.head, 3)) == 0, e.name)
        assert(jobsRun(e.searchBatch(batch, 3)) == 0, e.name)
        assert(jobsRun(assert(e.searchBatch(Seq.empty, 3).isEmpty)) == 0, e.name)
        e.partitions.forget()
        assert(jobsRun(e.search(batch.head, 3)) == 1, e.name)
        assert(jobsRun(e.searchBatch(batch, 3)) == 1, e.name)
        assert(jobsRun(assert(e.searchBatch(Seq.empty, 3).isEmpty)) == 0, e.name)
      }
    } finally engines.foreach(_.close())
  }

  test("bad input is rejected on the driver before any job runs") {
    val n = 64
    val data = TestData.dataset(214, 100, n)
    val idx = DistributedIndex.build("MESSI", toDs(data), Isax.space(n, 8, 256), 32, 2)
    try {
      val q = TestData.mixedSeries(TestData.rng(215), n)
      assert(jobsRun(intercept[IllegalArgumentException](idx.searchBatch(Seq(q, q.take(n - 1)), 1))) == 0)
      val err = intercept[IllegalArgumentException](idx.searchBatch(Seq(q, q.take(n - 1)), 1))
      assert(err.getMessage.contains(s"query 1 has length ${n - 1}") && err.getMessage.contains(s"length $n"))
      assert(jobsRun(intercept[IllegalArgumentException](idx.search(q, 0))) == 0)
      for (bad <- Seq(Float.NaN, Float.PositiveInfinity)) {
        val q1 = q.clone(); q1(5) = bad
        assert(jobsRun(intercept[IllegalArgumentException](idx.searchBatch(Seq(q, q1), 1))) == 0)
        val err = intercept[IllegalArgumentException](idx.searchBatch(Seq(q, q1), 1))
        assert(err.getMessage.contains("query 1 has a NaN or infinite value"))
      }
    } finally idx.close()
  }

  test("a stored NaN or infinite value is rejected at build, naming its series — SOFA") {
    assertRejectsNonFinite(ds => EngineFactory.sofa(ds, 64, IndexConfig(leafCapacity = 16, partitions = 3, sampleRate = 0.2)))
  }

  test("a stored NaN or infinite value is rejected at build, naming its series — MESSI") {
    assertRejectsNonFinite(ds => EngineFactory.messi(ds, 64, IndexConfig(leafCapacity = 16, partitions = 3)))
  }
}
