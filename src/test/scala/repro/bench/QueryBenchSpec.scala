package repro.bench

import repro.SparkSpec
import repro.data.Benchmark17
import repro.spark.IndexConfig

class QueryBenchSpec extends SparkSpec {

  test("runDataset times every query of every engine by wall-clock and cross-checks the answers") {
    val spec = Benchmark17.catalog.find(_.name == "LenDB").get.scaled(0.01)
    // runDataset throws if the engines disagree on any query's nearest neighbor
    val runs = QueryBench.runDataset(spark, spec, partitions = 2, nQueries = 3, ks = Seq(1),
                                     IndexConfig(leafCapacity = 100))
    assert(runs.map(_.engine) == Seq("UCR-P", "FAISS", "MESSI", "SOFA"))
    runs.foreach { r =>
      assert(r.timesMs.length == 3 && r.timesMs.forall(_ > 0), s"${r.engine}: ${r.timesMs.mkString(",")}")
      assert(r.kthDists.length == 3 && r.kthDists.forall(d => d >= 0 && !d.isNaN), r.engine)
    }
  }

  test("table3 cross-checks every engine's k-th distance per (dataset, k)") {
    val spec = Benchmark17.catalog.find(_.name == "SIFT1b").get.scaled(0.005)
    // runDataset, which table3 runs per dataset, throws if the engines
    // disagree on any query's k-th distance
    val runs = QueryBench.runDataset(spark, spec, partitions = 2, nQueries = 3, ks = Seq(1, 5),
                                     IndexConfig(leafCapacity = 100))
    assert(runs.map(r => (r.engine, r.k)).toSet == Set("UCR-P", "FAISS", "MESSI", "SOFA").map((_, 1)) ++
                                                   Set("FAISS", "MESSI", "SOFA").map((_, 5)))
    runs.foreach(r => assert(r.kthDists.forall(d => d >= 0 && !d.isNaN), r.engine))
  }
}
