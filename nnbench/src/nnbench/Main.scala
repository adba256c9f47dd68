package nnbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import org.apache.spark.sql.{Dataset, SparkSession}
import org.json4s.JsonDSL._
import org.json4s.jackson.JsonMethods.{compact, render}
import org.json4s.{JArray, JDouble, JNull, JObject, JValue}
import repro.core.{Series, SeriesRecord}
import repro.data.{Benchmark17, SeriesGen}
import repro.spark.{Built, EngineFactory, IndexConfig}

import scala.collection.mutable.ArrayBuffer
import scala.collection.parallel.CollectionConverters._
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** One benchmark workload: a Benchmark17 analog at half catalog size and the
  * way a single closed-loop client queries it. `block == 1` means one
  * `search` call per query; otherwise `searchBatch` over blocks of that size.
  */
final case class Workload(name: String, dataset: String, k: Int, block: Int)

object Workload {
  val all: Seq[Workload] = Seq(
    // Sequential 1-NN where SFA prunes best: dispatch and driver work dominate.
    Workload("seq-lendb", "LenDB", k = 1, block = 1),
    // Batched 10-NN on i.i.d. vectors: bounds prune poorly, in-task kernels dominate.
    // A block is the query set the k-NN bench (`Table3KnnBench`, `Bench.nQueries`
    // = 15) hands each engine in one call.
    Workload("batch-sift", "SIFT1b", k = 10, block = 15),
  )
  def named(n: String): Workload =
    all.find(_.name == n).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$n' (known: ${all.map(_.name).mkString(", ")})"))
}

object Main {
  /** Builds of every engine in set-up; `setup_s` takes their median. */
  val SetupRounds = 3
  /** Rebuilds of each tree engine after the measured phase; `build_s` takes
    * their median. Build times fall while the JIT compiles the build path:
    * SOFA's, Catalyst included, from 3 s to 0.5 s over its first dozen
    * builds in one JVM, MESSI's over five. So set-up builds stay in
    * `setup_s`, and SOFA is first rebuilt `SofaWarmRebuilds` times uncounted.
    */
  val SofaWarmRebuilds = 6
  val RebuildRounds = 5
  /** Untimed warmup: all cores issuing queries, then the one client alone. */
  val WarmupConcurrentS = 8.0
  val WarmupSoloS = 2.0
  /** Measured time each engine gets per round, at least one call. */
  val SliceMs = 300.0
  /** Measured calls walk this pool of queries, wrapping around at its end. */
  val PoolSize = 4096

  def main(argv: Array[String]): Unit = {
    val opts = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val wl = Workload.named(opt("workload"))
    val spec0 = Benchmark17.catalog.find(_.name == wl.dataset).get.scaled(0.5)
    val seed = opts.get("seed").map(_.toLong).getOrElse(spec0.seed)
    val run = new Run(wl, spec0.copy(seed = seed), opt("seconds").toDouble, opt("cores").toInt,
                      new Tracer(opt("trace") == "1"))
    val out = try run.execute() finally run.close()
    Files.write(Paths.get(opt("out")), compact(render(out)).getBytes(StandardCharsets.UTF_8))
  }
}

/** A built engine with everything measured on it during one run. */
final class Slot(val key: String, make: () => Built) {
  final case class Call(first: Int, ns: Long, traced: Boolean, answers: Option[Array[Array[(Long, Double)]]])

  var built: Built = _
  /** Every build of this engine: set-up rounds first, then rebuilds. */
  val buildS = ArrayBuffer.empty[Double]
  def rebuildS: Seq[Double] = buildS.toSeq.takeRight(Main.RebuildRounds)
  val calls = ArrayBuffer.empty[Call]

  /** Builds the engine anew, timed. With `clean`, the old engine's garbage
    * is collected first, untimed, so a rebuild does not pay for what the
    * measured phase left on the heap.
    */
  def build(tracer: Tracer, clean: Boolean = false): Unit = {
    if (built != null) { built.close(); if (clean) System.gc() }
    val t0 = System.nanoTime()
    built = tracer.span(s"$key.build")(make())
    buildS += (System.nanoTime() - t0) / 1e9
  }
}

final class Run(val wl: Workload, val spec: Benchmark17.DatasetSpec, val seconds: Double,
                val cores: Int, val tracer: Tracer) {
  import Stats._

  private val startNs = System.nanoTime()
  val calibStartMs: Double = Host.calibMs()

  val (spark: SparkSession, sessionS: Double) = timedS {
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"nnbench-${wl.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
  val listener: Option[JobListener] =
    if (tracer.on) { val l = new JobListener; spark.sparkContext.addSparkListener(l); Some(l) } else None

  val (ds: Dataset[SeriesRecord], genS: Double) = timedS {
    val d = SeriesGen.dataset(spark, spec.profile, spec.count, spec.seed).cache()
    d.count()
    d
  }

  val cfg: IndexConfig = IndexConfig(partitions = cores, seed = spec.seed)
  val slots: Seq[Slot] = Seq(
    new Slot("sofa", () => EngineFactory.sofa(ds, spec.len, cfg)),
    new Slot("messi", () => EngineFactory.messi(ds, spec.len, cfg)),
    new Slot("ucr", () => EngineFactory.ucr(ds, cfg.partitions)),
    new Slot("faiss", () => EngineFactory.faiss(ds, cfg.partitions)),
  )
  def slot(key: String): Slot = slots.find(_.key == key).get

  /** Set-up: session and data once, then `SetupRounds` builds of every engine. */
  val setupRoundS: Seq[Double] = (0 until Main.SetupRounds).map { _ =>
    timedS(slots.foreach(_.build(tracer)))._2
  }
  val setupS: Double = sessionS + genS + median(setupRoundS)
  val firstSetupS: Double = (System.nanoTime() - startNs) / 1e9

  /** Measured queries: the catalog's query stream of this dataset and seed. */
  val pool: Array[Array[Float]] =
    Array.tabulate(Main.PoolSize)(i => SeriesGen.series(spec.profile, spec.seed, 1_000_000_000L + i))
  /** The `i`-th measured query; the index is unbounded, the pool wraps. */
  def query(i: Int): Array[Float] = pool(i % pool.length)

  var warmupCalls = 0L
  var rounds = 0
  var measuredS = 0.0
  var gcMs = 0.0

  def execute(): JObject = {
    warmup()
    measure()
    rebuild()
    val calibEndMs = Host.calibMs()
    val check = Exactness.check(this)
    val metrics =
      if (tracer.on) Layers.metrics(this, calibEndMs)
      else endToEnd
    val attempted = slots.map(s => s.calls.size * wl.block).sum
    val failed = check.failed.values.sum
    val info =
      ("workload" -> wl.name) ~
      ("trace" -> tracer.on) ~
      ("host" -> Host.record(spark, cores, cfg.partitions)) ~
      ("dataset" -> (("name" -> spec.name) ~ ("count" -> spec.count) ~ ("len" -> spec.len) ~
                     ("profile" -> spec.profile.toString) ~ ("seed" -> spec.seed))) ~
      ("k" -> wl.k) ~ ("block" -> wl.block) ~
      ("warmup" -> (("concurrent_s" -> Main.WarmupConcurrentS) ~ ("solo_s" -> Main.WarmupSoloS) ~
                    ("threads" -> cores) ~ ("calls" -> warmupCalls))) ~
      ("measured" -> (("seconds" -> measuredS) ~ ("rounds" -> rounds) ~ ("gc_ms" -> gcMs))) ~
      ("setup" -> (("setup_s" -> setupS) ~ ("session_s" -> sessionS) ~ ("data_gen_s" -> genS) ~
                   ("round_s" -> setupRoundS) ~ ("first_setup_s" -> firstSetupS))) ~
      ("drift" -> (("calib_start_ms" -> calibStartMs) ~ ("calib_end_ms" -> calibEndMs) ~
                   ("calib_drift_pct" -> 100.0 * (calibEndMs - calibStartMs) / calibStartMs))) ~
      ("engines" -> JObject(slots.toList.map(s => s.key -> engineInfo(s, check)))) ~
      ("exactness_failures" -> check.examples)
    ("result" -> (("correct" -> (failed == 0 && attempted > 0)) ~ ("attempted" -> attempted) ~
                  ("failed" -> failed) ~ ("metrics" -> metrics))) ~
      ("info" -> info) ~
      ("spans" -> (if (tracer.on) tracer.toJson else JArray(Nil)))
  }

  private def engineInfo(s: Slot, check: Exactness.Result): JObject = {
    val ms = perQueryMs(s)
    val half = ms.length / 2
    val (label, tail) = highPercentile(ms)
    ("attempted" -> s.calls.size * wl.block) ~ ("failed" -> check.failed(s.key)) ~
      ("calls" -> s.calls.size) ~ ("p50_ms" -> num(median(ms))) ~ ("tail" -> label) ~
      ("tail_ms" -> num(tail)) ~
      ("p50_first_half_ms" -> num(median(ms.take(half)))) ~
      ("p50_second_half_ms" -> num(median(ms.drop(half)))) ~
      ("p50_fifths_ms" -> (0 until 5).map(i => num(median(ms.slice(i * ms.length / 5, (i + 1) * ms.length / 5))))) ~
      ("qps" -> num(qps(s))) ~ ("build_s" -> s.buildS.toSeq)
  }

  /** Per-query wall time of each successful untraced call (`search` latency,
    * or `searchBatch` wall over the block size).
    */
  def perQueryMs(s: Slot, traced: Boolean = false): Seq[Double] =
    s.calls.toSeq.filter(c => c.answers.isDefined && c.traced == traced).map(_.ns / 1e6 / wl.block)

  def qps(s: Slot): Double = {
    val ok = s.calls.filter(c => c.answers.isDefined && !c.traced)
    ok.size * wl.block / (ok.map(_.ns).sum / 1e9)
  }

  /** One latency statistic per engine: `qps` restates the same calls, so it
    * stays in the run record and is not a metric of its own.
    */
  private def endToEnd: JObject = {
    val m = ArrayBuffer[(String, JValue)]("setup_s" -> metric(setupS, "s"))
    slots.foreach(s => m += s"${s.key}.p50_ms" -> metric(median(perQueryMs(s)), "ms"))
    Seq("sofa", "messi").foreach(k => m += s"$k.build_s" -> metric(median(slot(k).rebuildS), "s"))
    JObject(m.toList)
  }

  /** One query call: `search` for block 1, else `searchBatch`. */
  def answer(b: Built, first: Int, qs: Int => Array[Float]): Array[Array[(Long, Double)]] =
    if (wl.block == 1) Array(b.search(qs(first), wl.k))
    else b.searchBatch((first until first + wl.block).map(qs), wl.k)

  /** Untimed: every core issues the workload's calls so per-job code reaches
    * its compiled steady state sooner, then the single client warms alone.
    */
  private def warmup(): Unit = {
    def warmQuery(i: Int) = SeriesGen.series(spec.profile, spec.seed, 2_000_000_000L + i)
    def loop(thread: Int, deadline: Long): Long = {
      var n = 0L
      while (System.nanoTime() < deadline) {
        val s = slots((n % slots.size).toInt)
        try answer(s.built, (thread * 100000 + n * wl.block).toInt, warmQuery)
        catch { case NonFatal(_) => () } // the measured phase counts failures
        n += 1
      }
      n
    }
    val d1 = System.nanoTime() + (Main.WarmupConcurrentS * 1e9).toLong
    val threads = (1 to cores).map { t =>
      val th = new Thread(() => { val n = loop(t, d1); synchronized(warmupCalls += n) })
      th.start(); th
    }
    threads.foreach(_.join())
    warmupCalls += loop(0, System.nanoTime() + (Main.WarmupSoloS * 1e9).toLong)
  }

  /** Closed loop, one client. Each round gives every engine, in an order
    * rotated per round, consecutive calls for at least `Main.SliceMs`, so
    * host bursts hit all engines alike and each engine gets a similar share
    * of measured time. Every engine walks the same query sequence. Traced
    * runs leave every second round untraced to measure the overhead.
    */
  private def measure(): Unit = {
    val sc = spark.sparkContext
    val gc0 = Host.gcMs()
    val t0 = System.nanoTime()
    val next = Array.fill(slots.size)(0)
    // At least two rounds, so a traced run has traced and untraced calls.
    while (System.nanoTime() - t0 < (seconds * 1e9).toLong || rounds < 2) {
      val traced = tracer.on && rounds % 2 == 0
      slots.indices.map(j => (rounds + j) % slots.size).foreach { i =>
        val s = slots(i)
        val sliceEnd = System.nanoTime() + (Main.SliceMs * 1e6).toLong
        do {
          val first = next(i)
          if (traced) sc.setJobGroup(s"${s.key}:$first", s"${s.key} query $first", interruptOnCancel = false)
          val c0 = System.nanoTime()
          val ans =
            try Some(tracer.span(s"${s.key}.query", first)(answer(s.built, first, query)))
            catch { case NonFatal(e) => Console.err.println(s"[nnbench] ${s.key} query $first failed: $e"); None }
          val ns = System.nanoTime() - c0
          if (traced) sc.clearJobGroup()
          s.calls += s.Call(first, ns, traced, ans)
          next(i) += wl.block
        } while (System.nanoTime() < sliceEnd)
      }
      rounds += 1
    }
    measuredS = (System.nanoTime() - t0) / 1e9
    gcMs = Host.gcMs() - gc0
  }

  private def rebuild(): Unit = {
    (0 until Main.SofaWarmRebuilds).foreach(_ => slot("sofa").build(tracer, clean = true))
    (0 until Main.RebuildRounds).foreach(_ => Seq("sofa", "messi").foreach(k => slot(k).build(tracer, clean = true)))
  }

  /** Z-normalized copy of the dataset on the driver, for the Spark-free
    * reference and the layer replays. Generated outside every timed section.
    */
  lazy val localZ: Array[Array[Float]] =
    (0 until spec.count.toInt).par.map(i => Series.znorm(SeriesGen.series(spec.profile, spec.seed, i))).toArray

  def close(): Unit = spark.stop()
}

object Stats {
  def timedS[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted; val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.length

  /** The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples above it. */
  def highPercentile(xs: Seq[Double]): (String, Double) = {
    val s = xs.sorted
    val ladder = Seq(("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75))
    ladder.find { case (_, p) => (1 - p) * s.length >= 10 - 1e-9 } match {
      case Some((label, p)) => (label, s(math.ceil(p * s.length).toInt - 1))
      case None             => ("p50", median(s))
    }
  }

  /** A number, or null where a statistic has no samples. */
  def num(v: Double): JValue = if (v.isNaN || v.isInfinite) JNull else JDouble(v)

  def metric(v: Double, unit: String): JObject = ("value" -> num(v)) ~ ("unit" -> unit)
}

object Host {
  /** A fixed Spark-free loop: median of the last seven of twelve timings, in ms. Tracks host
    * speed drift between the start and end of a run; never used to
    * normalize a metric.
    */
  def calibMs(): Double = {
    val times = (0 until 12).map { _ =>
      val t0 = System.nanoTime()
      var x = 0x9E3779B97F4A7C15L; var acc = 0.0; var i = 0
      while (i < 4000000) {
        x ^= x << 13; x ^= x >>> 7; x ^= x << 17
        acc += (x & 0xFFFF).toDouble * 1e-5
        i += 1
      }
      if (acc == 42.0) println("") // keeps the loop live
      (System.nanoTime() - t0) / 1e6
    }
    Stats.median(times.drop(5))
  }

  def gcMs(): Double = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum.toDouble

  def record(spark: SparkSession, cores: Int, partitions: Int): JObject = {
    val rt = Runtime.getRuntime
    ("nproc" -> cores) ~
      ("jvm_processors" -> rt.availableProcessors()) ~
      ("jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}") ~
      ("spark" -> spark.version) ~
      ("master" -> spark.sparkContext.master) ~
      ("partitions" -> partitions) ~
      ("partitions_above_nproc" -> (partitions > cores)) ~
      ("heap_max_mb" -> rt.maxMemory() / (1 << 20)) ~
      ("gc" -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).mkString(",")) ~
      ("jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filterNot(_.startsWith("--add-opens")).mkString(" "))
  }
}
