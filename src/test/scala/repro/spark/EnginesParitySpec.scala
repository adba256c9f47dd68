package repro.spark

import org.apache.spark.sql.Dataset
import repro.{SparkSpec, TestData}
import repro.core.{Series, SeriesRecord}
import repro.data.{Benchmark17, SeriesGen}

class EnginesParitySpec extends SparkSpec {

  test("all four engines return identical NN distances on diverse benchmark analogs") {
    val specs = Benchmark17.catalog.filter(s => Set("LenDB", "Astro", "SIFT1b").contains(s.name))
      .map(_.scaled(0.02))
    val cfg = IndexConfig(leafCapacity = 64, partitions = 3, sampleRate = 0.25)
    specs.foreach { spec =>
      val (ds, queries) = Benchmark17.load(spark, spec, nQueries = 4)
      val engines = Seq(
        EngineFactory.sofa(ds, spec.len, cfg),
        EngineFactory.messi(ds, spec.len, cfg),
        EngineFactory.ucr(ds, 3),
        EngineFactory.faiss(ds, 3),
      )
      try {
        queries.foreach { q =>
          val results = engines.map(_.search(q, 3))
          results.tail.foreach { r =>
            TestData.assertSameKnn(r, results.head, tol = 1e-4)
          }
        }
      } finally engines.foreach(_.close())
    }
  }

  test("SOFA prunes: exactness holds even with a query far from the data") {
    import spark.implicits._
    val n = 64
    val data = TestData.dataset(260, 300, n)
    val ds = spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
    val sofa = EngineFactory.sofa(ds, n, IndexConfig(leafCapacity = 32, partitions = 2, sampleRate = 0.5))
    try {
      // a pathological spike query
      val q = Array.tabulate(n)(i => if (i == 0) 100.0f else 0.0f)
      val got = sofa.search(q, 1)
      TestData.assertSameKnn(got, TestData.bruteKnn(data.toIndexedSeq, q, 1))
    } finally sofa.close()
  }

  test("ties resolve by (distance, id) — constant series, all four engines, partitions {1, 3, 8}, k {1, 2, 4}") {
    import spark.implicits._
    val n = 64
    val constIds = Set(3L, 11L, 20L, 33L, 57L)
    // constant series z-normalize to all zeros, as does the constant query:
    // five exact ties at distance 0, loaded in descending id order
    val data = TestData.dataset(262, 80, n).map { case (id, v) =>
      (id, if (constIds(id)) Array.fill(n)(id.toFloat) else v)
    }.reverse
    val ds = spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
    val q = Array.fill(n)(5.0f)
    for (p <- Seq(1, 3, 8)) {
      val cfg = IndexConfig(leafCapacity = 16, partitions = p, sampleRate = 1.0)
      val engines = Seq(EngineFactory.sofa(ds, n, cfg), EngineFactory.messi(ds, n, cfg),
                        EngineFactory.ucr(ds, p), EngineFactory.faiss(ds, p))
      try {
        for (k <- Seq(1, 2, 4); e <- engines) {
          val want = TestData.bruteKnn(data.toIndexedSeq, q, k)
          val got = e.search(q, k)
          assert(got.map(_._1).sameElements(want.map(_._1)),
            s"${e.name} p=$p k=$k: ${got.mkString(",")} want ${want.mkString(",")}")
          TestData.assertSameKnn(got, want)
        }
      } finally engines.foreach(_.close())
    }
  }

  test("exact duplicates of a non-constant series — ids and distances of brute force, partitions {1, 3, 8}, k {1, 3, 5}") {
    import spark.implicits._
    val n = 64
    val dupIds = Set(4L, 19L, 42L, 66L)
    // four exact copies of series 4, loaded in descending id order
    val base = TestData.dataset(263, 80, n)
    val shape = base(4)._2
    val data = base.map { case (id, v) => (id, if (dupIds(id)) shape.clone() else v) }.reverse
    val ds = spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
    val r = TestData.rng(264)
    val queries = Seq(shape, shape.map(x => x + 0.05f * r.nextGaussian().toFloat))
    for (p <- Seq(1, 3, 8)) {
      val cfg = IndexConfig(leafCapacity = 16, partitions = p, sampleRate = 1.0)
      val exact = Seq(EngineFactory.sofa(ds, n, cfg), EngineFactory.messi(ds, n, cfg), EngineFactory.ucr(ds, p))
      val faiss = EngineFactory.faiss(ds, p)
      try {
        for (k <- Seq(1, 3, 5); q <- queries) {
          val want = TestData.bruteKnn(data.toIndexedSeq, q, k)
          exact.foreach { e =>
            val got = e.search(q, k)
            assert(got.sameElements(want), s"${e.name} p=$p k=$k: ${got.mkString(",")} want ${want.mkString(",")}")
          }
          val got = faiss.search(q, k)
          assert(got.map(_._1).sameElements(want.map(_._1)),
            s"${faiss.name} p=$p k=$k: ${got.mkString(",")} want ${want.mkString(",")}")
          TestData.assertSameKnn(got, want, tol = 1e-4)
        }
      } finally (exact :+ faiss).foreach(_.close())
    }
  }

  /** Mixed series with five constant series (exact ties at distance 0 to a
    * constant query) and four exact copies of series 4, in descending id order.
    */
  private def tiesAndDuplicates(n: Int): Array[(Long, Array[Float])] = {
    val constIds = Set(3L, 11L, 20L, 33L, 57L)
    val dupIds = Set(4L, 19L, 42L, 66L)
    val base = TestData.dataset(265, 80, n)
    base.map { case (id, v) =>
      (id, if (constIds(id)) Array.fill(n)(id.toFloat) else if (dupIds(id)) base(4)._2.clone() else v)
    }.reverse
  }

  private def allFour(ds: Dataset[SeriesRecord], n: Int, p: Int): Seq[Built] = {
    val cfg = IndexConfig(leafCapacity = 16, partitions = p, sampleRate = 1.0)
    Seq(EngineFactory.sofa(ds, n, cfg), EngineFactory.messi(ds, n, cfg),
        EngineFactory.ucr(ds, p), EngineFactory.faiss(ds, p))
  }

  /** SOFA, MESSI and UCR-P must give brute force's exact list; FAISS its ids,
    * with distances from the norm decomposition within 1e-4.
    */
  private def assertBrute(e: Built, got: Array[(Long, Double)], want: Array[(Long, Double)], what: String): Unit =
    if (e.name == "FAISS") {
      assert(got.map(_._1).sameElements(want.map(_._1)), s"$what: ${got.mkString(",")} want ${want.mkString(",")}")
      TestData.assertSameKnn(got, want, tol = 1e-4)
    } else assert(got.sameElements(want), s"$what: ${got.mkString(",")} want ${want.mkString(",")}")

  test("in-process and job paths give identical brute-force answers — all four engines, partitions {1, 3, 8}, k {1, 3, 10}") {
    import spark.implicits._
    // n = 100 leaves a 4-point tail after the ED kernel's 8-point chunks
    for (n <- Seq(64, 100)) {
      val data = tiesAndDuplicates(n)
      val ds = spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
      val r = TestData.rng(266)
      val shape = data.find(_._1 == 4L).get._2
      // the last query is a near-duplicate: stored series 49, z-normalized,
      // jittered by about 1e-3
      val batch = Seq(Array.fill(n)(5.0f), shape, shape.map(x => x + 0.05f * r.nextGaussian().toFloat),
                      TestData.mixedSeries(r, n), data(30)._2,
                      Series.znorm(data(30)._2).map(x => x + 1e-3f * r.nextGaussian().toFloat))
      for (p <- Seq(1, 3, 8)) {
        val engines = allFour(ds, n, p)
        try engines.foreach { e =>
          bothPaths(e, batch, Seq(1, 3, 10)).foreach { case (k, got) =>
            batch.zip(got).zipWithIndex.foreach { case ((q, g), qi) =>
              assertBrute(e, g, TestData.bruteKnn(data.toIndexedSeq, q, k), s"${e.name} n=$n p=$p k=$k query $qi")
            }
            assert(got(5).head._1 == 49L, s"${e.name} n=$n p=$p k=$k: ${got(5).mkString(",")}")
          }
        } finally engines.foreach(_.close())
      }
    }
  }

  test("k above the dataset size returns every series in (distance, id) order — all four engines, both paths") {
    import spark.implicits._
    val n = 64
    val data = tiesAndDuplicates(n)
    val ds = spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
    val r = TestData.rng(267)
    val batch = Seq(Array.fill(n)(5.0f), TestData.mixedSeries(r, n))
    val want = batch.map(q => TestData.bruteKnn(data.toIndexedSeq, q, data.length))
    for (p <- Seq(1, 3)) {
      val engines = allFour(ds, n, p)
      try engines.foreach { e =>
        bothPaths(e, batch, Seq(data.length + 1, 10 * data.length)).foreach { case (k, got) =>
          got.zip(want).zipWithIndex.foreach { case ((g, w), qi) =>
            assert(g.length == data.length, s"${e.name} p=$p k=$k query $qi")
            assertBrute(e, g, w, s"${e.name} p=$p k=$k query $qi")
          }
        }
      } finally engines.foreach(_.close())
    }
  }

  test("concurrent clients get the serial answers — all four engines") {
    import spark.implicits._
    val n = 64
    val data = TestData.dataset(268, 300, n)
    val ds = spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
    val r = TestData.rng(269)
    val queries = Seq.fill(12)(TestData.mixedSeries(r, n))
    val engines = allFour(ds, n, 3)
    try engines.foreach { e =>
      val serial = queries.map(e.search(_, 3))
      val mismatches = new java.util.concurrent.ConcurrentLinkedQueue[String]()
      val clients = (0 until 4).map { c =>
        new Thread(() =>
          try for (round <- 0 until 5; i <- queries.indices) {
            val qi = (i * (c + 1) + round) % queries.length
            val got = e.search(queries(qi), 3)
            if (!got.sameElements(serial(qi))) mismatches.add(s"client $c query $qi: ${got.mkString(",")}")
          } catch { case t: Throwable => mismatches.add(s"client $c threw $t") })
      }
      clients.foreach(_.start())
      clients.foreach(_.join())
      assert(mismatches.isEmpty, s"${e.name}: ${mismatches.toArray.mkString("; ")}")
    } finally engines.foreach(_.close())
  }

  test("engines handle the vector-data profile (short series, n=96)") {
    val spec = Benchmark17.catalog.find(_.name == "Deep1b").get.scaled(0.01)
    val (ds, queries) = Benchmark17.load(spark, spec, nQueries = 3)
    val cfg = IndexConfig(leafCapacity = 32, partitions = 2, sampleRate = 0.5)
    val sofa = EngineFactory.sofa(ds, spec.len, cfg)
    val faiss = EngineFactory.faiss(ds, 2)
    try {
      queries.foreach { q =>
        TestData.assertSameKnn(sofa.search(q, 5), faiss.search(q, 5), tol = 1e-4)
      }
    } finally { sofa.close(); faiss.close() }
  }

  test("an empty dataset is rejected on the driver at build — MESSI, UCR-P and FAISS") {
    import spark.implicits._
    val empty = spark.emptyDataset[SeriesRecord]
    val builds: Seq[(String, () => Built)] = Seq(
      "MESSI" -> (() => EngineFactory.messi(empty, 64, IndexConfig(partitions = 2))),
      "UCR-P" -> (() => EngineFactory.ucr(empty, 2)),
      "FAISS" -> (() => EngineFactory.faiss(empty, 2)),
    )
    builds.foreach { case (name, build) =>
      val e = intercept[IllegalArgumentException](build())
      assert(e.getMessage.contains("the dataset holds no series"), s"$name: ${e.getMessage}")
    }
  }

  test("SeriesGen queries are disjoint from the indexed id stream") {
    val spec = Benchmark17.catalog.head.scaled(0.005)
    val qs = SeriesGen.queries(spec.profile, 5, spec.seed)
    val qs2 = SeriesGen.queries(spec.profile, 5, spec.seed)
    // deterministic
    qs.zip(qs2).foreach { case (a, b) => assert(a.sameElements(b)) }
    // and not equal to any of the first indexed series
    val first = SeriesGen.series(spec.profile, spec.seed, 0L)
    qs.foreach(q => assert(!q.sameElements(first)))
  }
}
