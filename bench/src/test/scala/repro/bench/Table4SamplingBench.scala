package repro.bench

import repro.SparkSpec

/** Table IV analog: SOFA 1-NN query times at MCB sampling rates
  * {0.1, 0.5, 1, 5, 10, 15, 20} % at 16 partitions.
  */
class Table4SamplingBench extends SparkSpec {

  test("Table IV: SOFA query times vs MCB sampling rate") {
    val grouped = QueryBench.table4(spark, Bench.scale, Bench.nQueries)
    println(QueryBench.formatTable4(grouped))

    // paper shape: times stabilize around the 1% rate — no rate should be
    // drastically better or worse than the default
    val m1 = QueryBench.mean(grouped(0.01))
    QueryBench.SampleRates.foreach { r =>
      val m = QueryBench.mean(grouped(r))
      assert(m > 0)
      assert(m < m1 * 3 && m > m1 / 3, s"rate $r mean $m vs 1% mean $m1 out of band")
    }
  }
}
