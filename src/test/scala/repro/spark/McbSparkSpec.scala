package repro.spark

import repro.{SparkSpec, TestData}
import repro.core.{Dft, Series, SeriesRecord, Sfa}

class McbSparkSpec extends SparkSpec {

  private def makeDs(seed: Long, count: Int, n: Int) = {
    import spark.implicits._
    val data = TestData.dataset(seed, count, n)
    (data, spark.createDataset(data.map { case (id, v) => SeriesRecord(id, v) }.toIndexedSeq))
  }

  test("distributed fit selects the same value indices as the local fit") {
    val n = 64
    val (data, ds) = makeDs(221, 300, n)
    val dist = McbSpark.fit(ds, n, l = 8, alpha = 16, sampleRate = 1.0)
    val local = Sfa.fit(data.map(d => Series.znorm(d._2)), n, l = 8, alpha = 16)
    assert(dist.bestIdx.sameElements(local.bestIdx))
    assert(dist.breakpoints.length == local.breakpoints.length)
    dist.breakpoints.zip(local.breakpoints).foreach { case (d, l) => assert(d.sameElements(l)) }
  }

  test("McbSpark.fit runs exactly one Spark job on a non-empty sample") {
    val n = 64
    val (_, ds) = makeDs(227, 300, n)
    assert(jobsRun(McbSpark.fit(ds, n, l = 8, alpha = 16, sampleRate = 0.5)) == 1)
  }

  test("sampling fallback: tiny datasets with tiny rates still fit") {
    val n = 32
    val (_, ds) = makeDs(222, 20, n)
    val model = McbSpark.fit(ds, n, l = 4, alpha = 8, sampleRate = 0.001)
    assert(model.bestIdx.length == 4)
    model.breakpoints.foreach(bp => assert(bp.length == 7))
  }

  test("EngineFactory.sofa rejects an empty dataset on the driver at the MCB sample") {
    import spark.implicits._
    val e = intercept[IllegalArgumentException](
      EngineFactory.sofa(spark.emptyDataset[SeriesRecord], 64, IndexConfig(partitions = 2)))
    assert(e.getMessage.contains("MCB sample must be non-empty"), e.getMessage)
  }

  test("fitted model produces valid lower bounds on out-of-sample pairs") {
    val n = 64
    val (_, ds) = makeDs(223, 200, n)
    val space = McbSpark.fit(ds, n, l = 8, alpha = 32, sampleRate = 0.5).space
    val r = TestData.rng(224)
    for (_ <- 1 to 100) {
      val q = Series.znorm(TestData.mixedSeries(r, n))
      val c = Series.znorm(TestData.mixedSeries(r, n))
      val lb = space.wordLbSq(space.project(q), space.word(c), Double.PositiveInfinity)
      assert(lb <= Series.edSq(q, c) + 1e-6)
    }
  }

  test("variance aggregate cross-checked against the DuckDB oracle") {
    import spark.implicits._
    // Sfa.fitStats's variance of every candidate value against DuckDB's
    // VAR_POP over the same DFT values.
    val n = 64
    val sample = TestData.dataset(226, 200, n).map(d => Series.znorm(d._2))
    val stats = Sfa.fitStats(sample, n, maxCoeff = 16)
    val cand = stats.cols.map(_.vi)
    val dft = new Dft.Selected(n, cand)
    val vals = sample.toSeq.flatMap(x => cand.zip(dft.transform(x))).toDF("vi", "v")
    val fitted = stats.cols.toSeq.map(c => (c.vi, c.variance)).toDF("vi", "vp")
    repro.Oracle.assertEquivalent(
      fitted,
      "SELECT CAST(vi AS INT) AS vi, VAR_POP(CAST(v AS DOUBLE)) AS vp FROM t GROUP BY vi",
      "t" -> vals)
  }
}
