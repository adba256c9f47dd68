package repro.baseline

import org.apache.spark.SparkException
import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestData}
import repro.core.SeriesRecord
import repro.spark.Built

class BaselinesSpec extends SparkSpec {

  private def toDs(data: Array[(Long, Array[Float])]) = {
    import spark.implicits._
    spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
  }

  test("UcrScan 1-NN equals brute force across partition counts") {
    val n = 64
    val data = TestData.dataset(240, 500, n)
    val ds = toDs(data)
    for (p <- Seq(1, 4)) {
      val e = UcrScan.build(ds, p)
      try {
        val r = TestData.rng(241)
        for (_ <- 1 to 5) {
          val q = TestData.mixedSeries(r, n)
          TestData.assertSameKnn(e.search(q, 1), TestData.bruteKnn(data.toIndexedSeq, q, 1))
        }
      } finally e.close()
    }
  }

  test("UcrScan k-NN equals brute force") {
    val n = 64
    val data = TestData.dataset(242, 400, n)
    val e = UcrScan.build(toDs(data), 4)
    try {
      val r = TestData.rng(243)
      for (k <- Seq(3, 10, 50)) {
        val q = TestData.mixedSeries(r, n)
        TestData.assertSameKnn(e.search(q, k), TestData.bruteKnn(data.toIndexedSeq, q, k))
      }
    } finally e.close()
  }

  test("FaissFlat 1-NN equals brute force") {
    val n = 64
    val data = TestData.dataset(246, 500, n)
    val e = FaissFlat.build(toDs(data), 4)
    try {
      val r = TestData.rng(247)
      for (_ <- 1 to 5) {
        val q = TestData.mixedSeries(r, n)
        TestData.assertSameKnn(e.search(q, 1), TestData.bruteKnn(data.toIndexedSeq, q, 1))
      }
    } finally e.close()
  }

  test("FaissFlat batched search equals per-query brute force, several k") {
    val n = 64
    val data = TestData.dataset(248, 400, n)
    val e = FaissFlat.build(toDs(data), 3)
    try {
      val r = TestData.rng(249)
      val queries = Array.fill(6)(TestData.mixedSeries(r, n))
      for (k <- Seq(1, 5, 20)) {
        val results = e.searchBatch(queries.toIndexedSeq, k)
        queries.zip(results).foreach { case (q, got) =>
          TestData.assertSameKnn(got, TestData.bruteKnn(data.toIndexedSeq, q, k))
        }
      }
    } finally e.close()
  }

  test("FaissFlat norm decomposition is numerically robust for identical series") {
    val n = 64
    val base = TestData.mixedSeries(TestData.rng(250), n)
    val data = Array.tabulate(5)(i => (i.toLong, base.clone()))
    val e = FaissFlat.build(toDs(data), 2)
    try {
      val res = e.search(base, 5)
      res.foreach { case (_, d) => assert(d < 1e-2, s"self-distance $d") }
    } finally e.close()
  }

  test("baselines agree with each other on a shared dataset") {
    val n = 96 // non-power-of-two, non-divisible by 16
    val data = TestData.dataset(251, 300, n)
    val ds = toDs(data)
    val ucr = UcrScan.build(ds, 3)
    val faiss = FaissFlat.build(ds, 3)
    try {
      val r = TestData.rng(252)
      for (_ <- 1 to 5) {
        val q = TestData.mixedSeries(r, n)
        TestData.assertSameKnn(ucr.search(q, 3), faiss.search(q, 3), tol = 1e-4)
      }
    } finally { ucr.close(); faiss.close() }
  }

  test("UcrScan searchBatch equals brute force across partitions {1, 3, 8} and k {1, 3, 10}") {
    val n = 64
    val data = TestData.dataset(253, 400, n)
    val ds = toDs(data)
    val r = TestData.rng(254)
    val q = TestData.mixedSeries(r, n)
    // the same query twice, and a stored series (its own NN at distance 0)
    val batch = Seq(q, data(17)._2, TestData.mixedSeries(r, n), q)
    for (p <- Seq(1, 3, 8)) {
      val e = UcrScan.build(ds, p)
      try {
        for (k <- Seq(1, 3, 10)) {
          val got = e.searchBatch(batch, k)
          assert(got.length == batch.length)
          batch.zip(got).foreach { case (bq, g) =>
            TestData.assertSameKnn(g, TestData.bruteKnn(data.toIndexedSeq, bq, k))
          }
          assert(got(1).head._1 == 17L && got(1).head._2 < 1e-3)
          assert(got(0).sameElements(got(3)))
        }
      } finally e.close()
    }
  }

  test("no Spark job in-process, one on the job path — UCR-P and FAISS") {
    val n = 64
    val ds = toDs(TestData.dataset(255, 300, n))
    val engines = Seq(UcrScan.build(ds, 3), FaissFlat.build(ds, 3))
    try {
      val r = TestData.rng(256)
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

  test("bad input is rejected on the driver before any job runs — UCR-P and FAISS") {
    val n = 64
    val ds = toDs(TestData.dataset(257, 100, n))
    val engines = Seq(UcrScan.build(ds, 2), FaissFlat.build(ds, 2))
    try {
      val q = TestData.mixedSeries(TestData.rng(258), n)
      engines.foreach { e =>
        assert(jobsRun(intercept[IllegalArgumentException](e.searchBatch(Seq(q, q.take(n - 1)), 1))) == 0, e.name)
        val err = intercept[IllegalArgumentException](e.searchBatch(Seq(q, q.take(n - 1)), 1))
        assert(err.getMessage.contains(s"query 1 has length ${n - 1}") && err.getMessage.contains(s"length $n"))
        assert(jobsRun(intercept[IllegalArgumentException](e.search(q, 0))) == 0, e.name)
        for (bad <- Seq(Float.NaN, Float.PositiveInfinity)) {
          val q1 = q.clone(); q1(5) = bad
          assert(jobsRun(intercept[IllegalArgumentException](e.searchBatch(Seq(q, q1), 1))) == 0, e.name)
          val err = intercept[IllegalArgumentException](e.searchBatch(Seq(q, q1), 1))
          assert(err.getMessage.contains("query 1 has a NaN or infinite value"), e.name)
        }
      }
    } finally engines.foreach(_.close())
  }

  test("series of the wrong length are rejected at build — UCR-P and FAISS") {
    val builds = Seq[(Dataset[SeriesRecord], Int) => Built](UcrScan.build, FaissFlat.build)
    // one partition holding a longer and a shorter series: rejected in the task
    val mixed = TestData.dataset(259, 20, 64) ++
      Seq(77L -> TestData.mixedSeries(TestData.rng(260), 65), 78L -> TestData.mixedSeries(TestData.rng(261), 63))
    val lengthOf = mixed.map { case (id, v) => id -> v.length }.toMap
    val named = """series (\d+) has length (\d+), the first series of its partition has length (\d+)""".r
    // alternating lengths in one input partition: repartition deals them out
    // round-robin, so each of two partitions holds one length
    val alternating = Array.tabulate(6)(i => (i.toLong, TestData.mixedSeries(TestData.rng(262 + i), 64 + i % 2)))
    builds.foreach { build =>
      val err = intercept[SparkException](build(toDs(mixed), 1))
      val m = named.findFirstMatchIn(err.getMessage)
      assert(m.exists(m => lengthOf(m.group(1).toLong) == m.group(2).toInt && m.group(2) != m.group(3)),
        err.getMessage)
      val split = intercept[IllegalArgumentException](build(toDs(alternating).coalesce(1), 2))
      assert(split.getMessage.contains("from 64 to 65"), split.getMessage)
    }
  }

  test("a stored NaN or infinite value is rejected at build, naming its series — UCR-P") {
    assertRejectsNonFinite(UcrScan.build(_, 3))
  }

  test("a stored NaN or infinite value is rejected at build, naming its series — FAISS") {
    assertRejectsNonFinite(FaissFlat.build(_, 3))
  }
}
