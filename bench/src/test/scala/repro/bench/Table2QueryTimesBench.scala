package repro.bench

import repro.SparkSpec

/** Table II analog: mean/median 1-NN query times over the 17 datasets for
  * UCR-P / FAISS / MESSI / SOFA at parallelism {4, 8, 16} partitions (the
  * paper's 9/18/36-core axis). The run itself cross-checks that all engines
  * return identical NN distances on every query (exactness end-to-end).
  */
class Table2QueryTimesBench extends SparkSpec {

  test("Table II: 1-NN query times, mixed workload") {
    val grouped = QueryBench.table2(spark, Bench.scale, Bench.nQueries)
    println(QueryBench.formatTable2(grouped))

    // paper's headline shapes (medians are robust to the vector datasets,
    // where scans win at this scale — as FAISS does in the paper):
    val sofa16 = QueryBench.median(grouped(("SOFA", 16)))
    val messi16 = QueryBench.median(grouped(("MESSI", 16)))
    val ucr16 = QueryBench.median(grouped(("UCR-P", 16)))
    assert(sofa16 > 0 && messi16 > 0 && ucr16 > 0)
    assert(sofa16 < ucr16, s"SOFA median $sofa16 should beat the sequential scan $ucr16")
    assert(sofa16 < messi16 * 1.2, s"SOFA median $sofa16 should be competitive with MESSI $messi16")

    // scaling: more partitions should not slow SOFA down dramatically
    val sofa4 = QueryBench.median(grouped(("SOFA", 4)))
    assert(sofa16 < sofa4 * 2.0, s"SOFA should scale: 16p=$sofa16 vs 4p=$sofa4")
  }
}
