package repro.baseline

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel
import repro.core.{Series, SeriesRecord}
import repro.spark.Built

/** UCR Suite-P analog (paper's parallel sequential-scan competitor): each
  * partition owns a slice of the in-memory z-normalized series array and scans
  * it with an early-abandoning Euclidean distance against a per-slice
  * best-so-far; partitions synchronize only at the end (driver merge). No
  * index, no lower bounds — the paper's "optimized serial scan" baseline.
  */
final class UcrScan private (
    val store: RDD[(Array[Long], Array[Array[Float]])],
    val numPartitions: Int,
    val n: Int,
) extends Built {

  override def name: String = "UCR-P"

  private def answers(queries: Seq[Array[Float]], k: Int): Array[Array[Built.Answer]] = {
    Built.validate(queries, k, n)
    Built.perPartition(store, queries.map(Series.znorm).toArray) {
      case ((ids, zs), qz) => UcrScan.scanPartition(ids, zs, qz, k)
    }
  }

  override def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]] =
    Built.mergeEach(answers(queries, k), k)

  /** Per-query time is the slowest partition: UCR-P threads own static slices
    * and synchronize only at the end.
    */
  override def searchAllTimed(queries: Seq[Array[Float]], k: Int)
      : (Array[Array[(Long, Double)]], Array[Double]) = {
    val a = answers(queries, k)
    (Built.mergeEach(a, k), a.map(_.map(_._2).max))
  }

  override def close(): Unit = { store.unpersist(blocking = false); () }
}

object UcrScan {

  /** Early-abandoning scan of one in-memory slice (static so task closures
    * never capture the engine instance).
    */
  private[baseline] def scanPartition(ids: Array[Long], zs: Array[Array[Float]],
                                      qz: Array[Float], k: Int): Array[(Long, Double)] = {
    val heap = new java.util.PriorityQueue[(Double, Long)](math.max(1, k),
      (a: (Double, Long), b: (Double, Long)) => java.lang.Double.compare(b._1, a._1))
    var bsfSq = Double.PositiveInfinity
    var i = 0
    while (i < zs.length) {
      val dSq = Series.edSqEarlyAbandon(qz, zs(i), bsfSq)
      if (dSq < bsfSq) {
        if (heap.size < k) heap.add((dSq, ids(i)))
        else if (dSq < heap.peek()._1) { heap.poll(); heap.add((dSq, ids(i))) }
        if (heap.size == k) bsfSq = heap.peek()._1
      }
      i += 1
    }
    val out = new Array[(Long, Double)](heap.size)
    var j = heap.size - 1
    while (j >= 0) { val (d, id) = heap.poll(); out(j) = (id, math.sqrt(d)); j -= 1 }
    out
  }

  /** Materialize z-normalized per-partition slices of the dataset. */
  def build(ds: Dataset[SeriesRecord], partitions: Int): UcrScan = {
    val store = ds.rdd
      .map(r => (r.id, Series.znorm(r.values)))
      .repartition(partitions)
      .mapPartitions { it =>
        val buf = it.toArray
        Iterator.single((buf.map(_._1), buf.map(_._2)))
      }
      .persist(StorageLevel.MEMORY_ONLY)
    // materializes the store and records the series length for `validate`
    val n = store.map { case (_, zs) => zs.headOption.fold(0)(_.length) }.fold(0)(math.max)
    new UcrScan(store, partitions, n)
  }
}
