package repro.bench

import org.apache.spark.sql.SparkSession
import repro.data.Benchmark17
import repro.data.Benchmark17.DatasetSpec
import repro.spark.{Built, EngineFactory, IndexConfig}

/** Query-time benchmarks behind Tables II, III and IV. Per dataset the four
  * engines are built over the same `Dataset[SeriesRecord]`. Every engine is
  * timed the same way: driver wall-clock around each `search(q, k)`, after
  * one untimed pass over the whole query set so no engine is measured
  * cold-JIT. For every (dataset, k), all engines must return the same k-th
  * nearest distance for every query — the benches double as end-to-end
  * exactness tests.
  *
  * Each table's setup is stated once, here; `jobs/Tables` and the `bench/`
  * suites pass only the scale and the number of queries per dataset.
  */
object QueryBench {

  /** Paper section V setup, with the leaf size scaled to our dataset sizes
    * (paper: 20k leaves on up-to-100M-series datasets; here ~100 on
    * up-to-24k-series datasets — the same leaves-per-worker order).
    */
  val Setup: IndexConfig = IndexConfig(leafCapacity = 100)

  /** Table II's parallelism axis: the paper's 9/18/36 cores as partitions.
    * Tables III and IV run at the largest.
    */
  val PartitionsList: Seq[Int] = Seq(4, 8, 16)
  private val MaxPartitions: Int = PartitionsList.max

  /** Table III's k values. */
  val Ks: Seq[Int] = Seq(1, 3, 5, 10, 20, 50)

  /** Table IV's MCB sampling rates. */
  val SampleRates: Seq[Double] = Seq(0.001, 0.005, 0.01, 0.05, 0.10, 0.15, 0.20)

  /** The 17 benchmark datasets with every series count multiplied by `scale`. */
  def catalog(scale: Double): Seq[DatasetSpec] = Benchmark17.catalog.map(_.scaled(scale))

  /** One engine's timed pass; `kthDists(q)` is query q's k-th nearest distance. */
  final case class Run(engine: String, dataset: String, partitions: Int, k: Int,
                       timesMs: Array[Double], kthDists: Array[Double])

  /** Mean/median over the pooled per-query times of a set of runs. */
  def mean(runs: Seq[Run]): Double = {
    val t = runs.flatMap(_.timesMs)
    if (t.isEmpty) 0.0 else t.sum / t.size
  }
  def median(runs: Seq[Run]): Double = {
    val t = runs.flatMap(_.timesMs).sorted
    if (t.isEmpty) 0.0 else t(t.size / 2)
  }

  /** One untimed pass over the whole query set. */
  private def warmUp(b: Built, queries: Array[Array[Float]], k: Int): Unit =
    queries.foreach(b.search(_, k))

  /** A timed pass of `b` over `queries`: the driver wall-clock ms of each
    * `search` call and the k-th distance of its answer.
    */
  private def timedRun(b: Built, spec: DatasetSpec, partitions: Int,
                       queries: Array[Array[Float]], k: Int): Run = {
    val (times, kth) = queries.map { q =>
      val t0 = System.nanoTime()
      val r = b.search(q, k)
      ((System.nanoTime() - t0) / 1e6, if (r.isEmpty) Double.NaN else r.last._2)
    }.unzip
    Run(b.name, spec.name, partitions, k, times, kth)
  }

  /** Exactness cross-check of one (dataset, k): every run must report the
    * first run's k-th nearest distance for every query.
    */
  private def crossCheck(runs: Seq[Run]): Unit = {
    val ref = runs.head
    runs.tail.foreach { r =>
      ref.kthDists.zip(r.kthDists).zipWithIndex.foreach { case ((a, b), qi) =>
        require(math.abs(a - b) <= 1e-4 * math.max(1.0, math.abs(a)),
          s"engine disagreement on ${ref.dataset} k=${ref.k} q$qi: ${ref.engine}=$a vs ${r.engine}=$b")
      }
    }
  }

  /** `engines` on one dataset at one parallelism level, built once and warmed
    * once at the first k, then timed and cross-checked at each k in `ks`.
    * UCR-P runs only at k = 1, as in the paper.
    */
  def runDataset(spark: SparkSession, spec: DatasetSpec, partitions: Int,
                 nQueries: Int, ks: Seq[Int], cfg0: IndexConfig,
                 engines: Seq[String] = Seq("UCR-P", "FAISS", "MESSI", "SOFA")): Seq[Run] = {
    val cfg = cfg0.copy(partitions = partitions, seed = spec.seed)
    val (ds, queries) = Benchmark17.load(spark, spec, nQueries)
    val built = engines.map {
      case "SOFA"  => EngineFactory.sofa(ds, spec.len, cfg)
      case "MESSI" => EngineFactory.messi(ds, spec.len, cfg)
      case "UCR-P" => EngineFactory.ucr(ds, partitions)
      case "FAISS" => EngineFactory.faiss(ds, partitions)
      case other   => throw new IllegalArgumentException(s"unknown engine $other")
    }
    try {
      built.foreach(warmUp(_, queries, ks.head))
      ks.flatMap { k =>
        val runs = built.filter(b => k == 1 || b.name != "UCR-P")
          .map(timedRun(_, spec, partitions, queries, k))
        crossCheck(runs)
        runs
      }
    } finally built.foreach(_.close())
  }

  /** Table II: per-engine mean/median 1-NN times pooled over the suite, for
    * each parallelism level.
    */
  def table2(spark: SparkSession, scale: Double, nQueries: Int): Map[(String, Int), Seq[Run]] = {
    val all = for {
      p <- PartitionsList
      spec <- catalog(scale)
      run <- runDataset(spark, spec, p, nQueries, Seq(1), Setup)
    } yield run
    all.groupBy(r => (r.engine, r.partitions))
  }

  def formatTable2(grouped: Map[(String, Int), Seq[Run]]): String = {
    val sb = new StringBuilder
    sb.append("Table II analog: 1-NN query times in ms (mixed workload)\n")
    sb.append(f"${"Method"}%-8s${"Partitions"}%-12s${"median"}%10s${"mean"}%10s\n")
    for (m <- Seq("UCR-P", "FAISS", "MESSI", "SOFA"); p <- PartitionsList) {
      grouped.get((m, p)).foreach { runs =>
        sb.append(f"$m%-8s$p%-12d${median(runs)}%10.2f${mean(runs)}%10.2f\n")
      }
    }
    sb.toString
  }

  /** Table III: median k-NN times at the maximum parallelism level. Engines
    * are built once per dataset and queried for every k (the paper omits UCR
    * beyond 1-NN).
    */
  def table3(spark: SparkSession, scale: Double, nQueries: Int): Map[(String, Int), Seq[Run]] =
    catalog(scale).flatMap(runDataset(spark, _, MaxPartitions, nQueries, Ks, Setup))
      .groupBy(r => (r.engine, r.k))

  def formatTable3(grouped: Map[(String, Int), Seq[Run]]): String = {
    val sb = new StringBuilder
    sb.append("Table III analog: median k-NN query times in ms\n")
    sb.append(f"${"Method"}%-8s" + Ks.map(k => f"$k%2d-NN" + "   ").mkString).append('\n')
    for (m <- Seq("UCR-P", "FAISS", "MESSI", "SOFA")) {
      sb.append(f"$m%-8s")
      Ks.foreach { k =>
        grouped.get((m, k)) match {
          case Some(runs) => sb.append(f"${median(runs)}%8.2f")
          case None       => sb.append(f"${"-"}%8s")
        }
      }
      sb.append('\n')
    }
    sb.toString
  }

  /** Table IV: SOFA at different MCB sampling rates. */
  def table4(spark: SparkSession, scale: Double, nQueries: Int): Map[Double, Seq[Run]] = {
    val all = for {
      r <- SampleRates
      spec <- catalog(scale)
      run <- runDataset(spark, spec, MaxPartitions, nQueries, Seq(1),
                        Setup.copy(sampleRate = r), engines = Seq("SOFA"))
    } yield (r, run)
    all.groupBy(_._1).map { case (r, xs) => r -> xs.map(_._2) }
  }

  def formatTable4(grouped: Map[Double, Seq[Run]]): String = {
    val sb = new StringBuilder
    sb.append("Table IV analog: SOFA 1-NN times vs MCB sampling rate\n")
    sb.append(f"${"Sampling"}%-10s${"mean ms"}%10s${"median ms"}%12s\n")
    SampleRates.foreach { r =>
      grouped.get(r).foreach { runs =>
        sb.append(f"${r * 100}%7.1f%%  ${mean(runs)}%10.2f${median(runs)}%12.2f\n")
      }
    }
    sb.toString
  }

  /** Table I: the benchmark catalog, paper counts vs reproduction counts. */
  def formatTable1(specs: Seq[DatasetSpec]): String = {
    val sb = new StringBuilder
    sb.append("Table I analog: benchmark datasets\n")
    sb.append(f"${"Dataset"}%-14s${"paper #series"}%15s${"repro #series"}%15s${"length"}%8s\n")
    specs.foreach { s =>
      sb.append(f"${s.name}%-14s${s.paperCount}%15d${s.count}%15d${s.len}%8d\n")
    }
    sb.append(f"${"TOTAL"}%-14s${specs.map(_.paperCount).sum}%15d${specs.map(_.count).sum}%15d\n")
    sb.toString
  }
}
