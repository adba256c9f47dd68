package repro.spark

import repro.{SparkSpec, TestData}
import repro.core.SeriesRecord

class PartitionsSpec extends SparkSpec {

  /** Partitions of `0 until 10` over `p` partitions: one array per non-empty
    * partition, none for an empty one (as FAISS builds its slabs).
    */
  private def arrays(p: Int): Partitions[Array[Int]] =
    Partitions.persist(spark.sparkContext.parallelize(0 until 10, p)) { it =>
      val a = it.toArray
      if (a.isEmpty) Iterator.empty else Iterator.single(a)
    }

  test("map runs in-process, empty partitions included, and on the job path once forgotten") {
    val parts = arrays(16) // 10 elements over 16 partitions: 6 are empty
    try {
      assert(parts.rdd.count() == 10)
      var local: Seq[Seq[Int]] = null
      assert(jobsRun { local = parts.map(_.toSeq) } == 0)
      parts.forget()
      var job: Seq[Seq[Int]] = null
      assert(jobsRun { job = parts.map(_.toSeq) } == 1)
      assert(local == job && local.flatten == (0 until 10))
    } finally parts.close()
  }

  test("a task's exception reaches the caller unwrapped") {
    val parts = arrays(3)
    try {
      assert(parts.rdd.count() == 3)
      val err = intercept[IllegalStateException](parts.map { a =>
        if (a.contains(7)) throw new IllegalStateException(s"boom ${a.length}") else a.length
      })
      assert(err.getMessage.startsWith("boom"))
    } finally parts.close()
  }

  test("a build followed by close() leaves the registry as it was — all four engines") {
    import spark.implicits._
    val before = Partitions.registered
    val ds = spark.createDataset(TestData.dataset(270, 120, 32).map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq)
    val cfg = IndexConfig(leafCapacity = 16, partitions = 3, sampleRate = 0.5)
    val engines = Seq(EngineFactory.sofa(ds, 32, cfg), EngineFactory.messi(ds, 32, cfg),
                      EngineFactory.ucr(ds, 3), EngineFactory.faiss(ds, 3))
    engines.foreach(e => assert(Partitions.registered.contains(e.partitions.key), e.name))
    assert(Partitions.registered.size == before.size + 4)
    engines.foreach(_.close())
    assert(Partitions.registered == before)
    // a build whose checks fail, on the driver or in a task, closes what it persisted
    intercept[IllegalArgumentException](EngineFactory.messi(spark.emptyDataset[SeriesRecord], 32, cfg))
    intercept[IllegalArgumentException](EngineFactory.faiss(spark.emptyDataset[SeriesRecord], 3))
    assertRejectsNonFinite(EngineFactory.messi(_, 64, cfg))
    assertRejectsNonFinite(EngineFactory.ucr(_, 3))
    assert(Partitions.registered == before)
  }
}
