package nnbench

import java.util.concurrent.ConcurrentLinkedQueue

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.json4s.JsonDSL._
import org.json4s.{JArray, JValue}

import scala.collection.concurrent.TrieMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** In-memory spans recorded around the benchmark's calls into each layer.
  * Used from the client thread only; written out when the run ends.
  */
final class Tracer(val on: Boolean) {
  final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int, query: Long) {
    def ms: Double = (endNs - startNs) / 1e6
  }

  private val spans = ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 0

  def span[A](name: String, query: Long = -1L)(body: => A): A =
    if (!on) body
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, name, t0, System.nanoTime(), parent, query)
        stack = stack.tail
      }
    }

  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  def toJson: JValue = JArray(spans.toList.map { s =>
    ("id" -> s.id) ~ ("name" -> s.name) ~ ("start_ns" -> s.startNs) ~ ("end_ns" -> s.endNs) ~
      ("parent" -> s.parent) ~ ("query" -> s.query)
  })
}

/** Collects Spark job and task events tagged with a job group. Events reach
  * a listener asynchronously, so `drain` must run before any aggregate is read.
  */
final class JobListener extends SparkListener {
  final case class TaskRec(stage: Int, launchMs: Long, finishMs: Long, gettingResultMs: Long,
                           deserMs: Long, deserCpuNs: Long, runMs: Long, cpuNs: Long,
                           resultSerMs: Long) {
    /** Scheduler delay as the Spark UI defines it. */
    def schedDelayMs: Double = {
      val fetch = if (gettingResultMs > 0) finishMs - gettingResultMs else 0L
      math.max(0L, (finishMs - launchMs) - runMs - deserMs - resultSerMs - fetch).toDouble
    }
    /** Task body plus deserialization, from the nanosecond CPU counters. */
    def cpuMs: Double = (deserCpuNs + cpuNs) / 1e6
  }

  private val groupOfJob = TrieMap.empty[Int, String]
  private val jobOfStage = TrieMap.empty[Int, Int]
  private val ended = TrieMap.empty[Int, Boolean]
  private val tasks = new ConcurrentLinkedQueue[TaskRec]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty(JobListener.GroupKey)))
    groupOfJob.put(e.jobId, g.getOrElse(""))
    e.stageIds.foreach(s => jobOfStage.put(s, e.jobId))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      val i = e.taskInfo
      tasks.add(TaskRec(e.stageId, i.launchTime, i.finishTime, i.gettingResultTime,
        m.executorDeserializeTime, m.executorDeserializeCpuTime, m.executorRunTime,
        m.executorCpuTime, m.resultSerializationTime))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.put(e.jobId, true)

  /** Run a marker job and wait until its end event arrives: a listener sees
    * events in order, so every earlier event has been handled by then.
    */
  def drain(sc: SparkContext, timeoutMs: Long = 60000L): Unit = {
    val group = s"nnbench-drain-${System.nanoTime()}"
    sc.setJobGroup(group, "listener drain", interruptOnCancel = false)
    try sc.parallelize(Seq(1), 1).count()
    finally sc.clearJobGroup()
    val deadline = System.currentTimeMillis() + timeoutMs
    def seen = groupOfJob.exists { case (j, g) => g == group && ended.contains(j) }
    while (!seen) {
      if (System.currentTimeMillis() > deadline) throw new IllegalStateException("listener bus did not drain")
      Thread.sleep(5)
    }
  }

  /** Tasks by job group, each with its job id. */
  def tasksByGroup: Map[String, Seq[(Int, TaskRec)]] =
    tasks.asScala.toSeq.flatMap { t =>
      jobOfStage.get(t.stage).map(j => (groupOfJob.getOrElse(j, ""), (j, t)))
    }.groupBy(_._1).map { case (g, xs) => g -> xs.map(_._2) }

  /** Number of jobs per job group. */
  def jobsByGroup: Map[String, Int] = groupOfJob.toSeq.groupBy(_._2).map { case (g, xs) => g -> xs.size }
}

object JobListener {
  /** The local property `SparkContext.setJobGroup` sets. */
  val GroupKey = "spark.jobGroup.id"
}
