package repro

import scala.collection.concurrent.TrieMap

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{Dataset, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.SeriesRecord
import repro.spark.Built

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit).
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Number of Spark jobs `body` runs on this thread. Listener events arrive
    * asynchronously, so a marker job is run and its end awaited before the
    * ends of `body`'s jobs are counted.
    */
  def jobsRun(body: => Any): Int = {
    val sc = spark.sparkContext
    val listener = new SparkSpec.GroupListener
    val group = s"counted-${System.nanoTime()}"
    val marker = s"$group-marker"
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted jobs")
      try body finally sc.clearJobGroup()
      sc.setJobGroup(marker, "listener drain")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      val deadline = System.currentTimeMillis() + 60000L
      while (listener.ended(marker) == 0) {
        assert(System.currentTimeMillis() < deadline, "listener bus did not drain")
        Thread.sleep(5)
      }
      listener.ended(group)
    } finally sc.removeSparkListener(listener)
  }

  /** Series 17, 42 and 0 of a 60-series dataset, each in turn holding a NaN,
    * +Inf or -Inf: `build` must fail with a message naming that series.
    */
  def assertRejectsNonFinite(build: Dataset[SeriesRecord] => Built): Unit = {
    import spark.implicits._
    for ((bad, id) <- Seq(Float.NaN -> 17L, Float.PositiveInfinity -> 42L, Float.NegativeInfinity -> 0L)) {
      val data = TestData.dataset(216, 60, 64).map { case (i, v) =>
        SeriesRecord(i, if (i == id) { val c = v.clone(); c(9) = bad; c } else v)
      }
      val err = intercept[Exception](build(spark.createDataset(data.toIndexedSeq)))
      assert(err.getMessage.contains(s"series $id has a NaN or infinite value"), err.getMessage)
    }
  }

  /** `e.searchBatch(batch, k)` for every k, first on the in-process path,
    * where no Spark job runs, then, after the engine's registry entries are
    * dropped, on the job path, where each call is one job. Asserts that both
    * paths give identical (id, distance) lists and returns them by k. The
    * engine stays on the job path afterwards.
    */
  def bothPaths(e: Built, batch: Seq[Array[Float]], ks: Seq[Int]): Map[Int, Array[Array[(Long, Double)]]] = {
    def run(k: Int, jobs: Int): Array[Array[(Long, Double)]] = {
      var got: Array[Array[(Long, Double)]] = null
      assert(jobsRun { got = e.searchBatch(batch, k) } == jobs, s"${e.name} k=$k")
      got
    }
    val local = ks.map(k => k -> run(k, 0)).toMap
    e.partitions.forget()
    ks.foreach { k =>
      val job = run(k, 1)
      job.zip(local(k)).zipWithIndex.foreach { case ((j, l), qi) =>
        assert(j.sameElements(l), s"${e.name} k=$k query $qi: job ${j.mkString(",")} in-process ${l.mkString(",")}")
      }
    }
    local
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN") // keep test/bench transcripts readable
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }

  /** Counts job ends per job group. */
  final class GroupListener extends SparkListener {
    private val groupOf = TrieMap.empty[Int, String]
    private val endedJobs = TrieMap.empty[Int, Unit]
    override def onJobStart(e: SparkListenerJobStart): Unit =
      groupOf.put(e.jobId, Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull)
    override def onJobEnd(e: SparkListenerJobEnd): Unit = endedJobs.put(e.jobId, ())
    def ended(group: String): Int =
      endedJobs.keys.count(j => groupOf.get(j).contains(group))
  }
}
