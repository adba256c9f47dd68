package repro.bench

import repro.SparkSpec

/** Table III analog: median k-NN query times for k in {1,3,5,10,20,50} at the
  * maximum parallelism level (16 partitions ~ the paper's 36 cores). UCR-P is
  * only run for 1-NN, as in the paper.
  */
class Table3KnnBench extends SparkSpec {

  test("Table III: k-NN query times at 16 partitions") {
    val grouped = QueryBench.table3(spark, Bench.scale, Bench.nQueries)
    println(QueryBench.formatTable3(grouped))

    // all methods scale gracefully in k (paper: "all methods scale efficiently")
    for (m <- Seq("FAISS", "MESSI", "SOFA")) {
      val t1 = QueryBench.median(grouped((m, 1)))
      val t50 = QueryBench.median(grouped((m, 50)))
      assert(t1 > 0 && t50 > 0)
      assert(t50 < t1 * 10, s"$m k-NN should not blow up: 1-NN $t1 ms vs 50-NN $t50 ms")
    }
    // SOFA stays fastest among the tree/scan engines at k = 1
    val sofa1 = QueryBench.median(grouped(("SOFA", 1)))
    val ucr1 = QueryBench.median(grouped(("UCR-P", 1)))
    assert(sofa1 < ucr1, s"SOFA median $sofa1 should beat UCR $ucr1")
  }
}
