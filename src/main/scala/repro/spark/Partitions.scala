package repro.spark

import java.lang.ref.WeakReference
import java.util.concurrent.{Callable, ConcurrentHashMap, ExecutionException, ExecutorService, Executors}
import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

import org.apache.spark.{SparkContext, SparkEnv}
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel

/** One engine's partition objects (trees, scan slices or FAISS slabs), built
  * by Spark and persisted deserialized (`MEMORY_ONLY`).
  *
  * `map` applies a function to every object. When every partition's objects
  * live in this JVM, which is the case under `local[*]`, it runs in-process:
  * one task per object on a fixed pool of `defaultParallelism` daemon
  * threads, the analog of MESSI's one worker thread per subtree. Otherwise it
  * runs one Spark job. Both paths apply the same function to the same
  * objects, so they return the same results.
  *
  * The objects are found through a JVM-local registry. A build task that runs
  * in the driver's JVM registers weak references to the very objects it hands
  * to the block manager, so the block manager stays their only owner. A
  * partition that was evicted, or whose entry was cleared, sends the call
  * down the job path; recomputing the partition registers it again.
  */
final class Partitions[P] private (val rdd: RDD[P], private[repro] val key: Long) {

  def map[R: ClassTag](f: P => R): Seq[R] =
    Partitions.local[P](key, rdd.getNumPartitions) match {
      case Some(objs) => Partitions.inPool(rdd.sparkContext, objs)(f)
      case None       => rdd.map(f).collect().toSeq
    }

  /** Drop this engine's registry entries and stop registering its objects:
    * later calls take the job path.
    */
  private[repro] def forget(): Unit = { Partitions.registry.remove(key); () }

  def close(): Unit = { forget(); rdd.unpersist(blocking = false); () }

  /** `body`, closing these partitions if it throws: for a build's checks. */
  private[repro] def closeOnFailure[A](body: => A): A =
    try body catch { case e: Throwable => close(); throw e }
}

object Partitions {

  /** Engine key -> partition index -> weak references to its objects. */
  private val registry = new ConcurrentHashMap[Long, ConcurrentHashMap[Int, Seq[WeakReference[AnyRef]]]]()
  private val keys = new AtomicLong()

  /** Persist `build` over each partition of `input`, registering the objects
    * it yields. `build` must not capture the engine, only what the task needs.
    */
  def persist[T, P <: AnyRef : ClassTag](input: RDD[T])(build: Iterator[T] => Iterator[P]): Partitions[P] = {
    val key = keys.incrementAndGet()
    registry.put(key, new ConcurrentHashMap())
    val rdd = input.mapPartitionsWithIndex { (i, it) =>
      val objs = build(it).toVector
      register(key, i, objs)
      objs.iterator
    }.persist(StorageLevel.MEMORY_ONLY)
    new Partitions(rdd, key)
  }

  /** Record a partition's objects, an empty partition too, when the task
    * runs in the driver's JVM and the engine is not closed.
    */
  private def register(key: Long, part: Int, objs: Seq[AnyRef]): Unit =
    if (SparkEnv.get.executorId == "driver")
      Option(registry.get(key)).foreach(_.put(part, objs.map(new WeakReference(_))))

  /** The objects of partitions `0 until numParts`, if all are registered and reachable. */
  private def local[P](key: Long, numParts: Int): Option[Seq[P]] =
    Option(registry.get(key)).flatMap { parts =>
      val refs = (0 until numParts).map(parts.get)
      if (refs.contains(null)) None
      else {
        val objs = refs.flatten.map(_.get)
        if (objs.contains(null)) None else Some(objs.asInstanceOf[Seq[P]])
      }
    }

  /** Keys of the engines whose objects are registered: a test hook. */
  private[repro] def registered: Set[Long] = registry.keySet.asScala.toSet

  private var pool: ExecutorService = _

  /** The query pool, made on first use with `defaultParallelism` threads.
    * Daemon threads, so the pool never keeps the JVM alive.
    */
  private def poolFor(sc: SparkContext): ExecutorService = synchronized {
    if (pool == null) {
      val made = new AtomicInteger()
      pool = Executors.newFixedThreadPool(sc.defaultParallelism, { (r: Runnable) =>
        val t = new Thread(r, s"repro-query-${made.incrementAndGet()}")
        t.setDaemon(true)
        t
      })
    }
    pool
  }

  /** `objs.map(f)` with one pool task per object; extra tasks queue. A task's
    * exception reaches the caller as thrown, not wrapped.
    */
  private def inPool[P, R](sc: SparkContext, objs: Seq[P])(f: P => R): Seq[R] = {
    val p = poolFor(sc)
    val futures = objs.map(o => p.submit(new Callable[R] { def call(): R = f(o) }))
    futures.map(fu => try fu.get() catch { case e: ExecutionException => throw e.getCause })
  }
}
