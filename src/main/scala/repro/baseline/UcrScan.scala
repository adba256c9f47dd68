package repro.baseline

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.core.{Series, SeriesRecord, TopK}
import repro.spark.{Built, Partitions}

/** UCR Suite-P analog (paper's parallel sequential-scan competitor): each
  * partition owns a slice of the in-memory z-normalized series array and scans
  * it with an early-abandoning Euclidean distance against a per-slice
  * best-so-far; partitions synchronize only at the end (driver merge). No
  * index, no lower bounds — the paper's "optimized serial scan" baseline.
  * Slices are answered in-process or in one Spark job, as `Partitions` decides.
  */
final class UcrScan private (
    override private[repro] val partitions: Partitions[(Array[Long], Array[Array[Float]])],
    val n: Int,
) extends Built {

  override def name: String = "UCR-P"

  val store: RDD[(Array[Long], Array[Array[Float]])] = partitions.rdd

  override def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]] = {
    Built.validate(queries, k, n)
    Built.perPartition(partitions, queries.map(Series.znorm).toArray, k) {
      case ((ids, zs), qz) => UcrScan.scanPartition(ids, zs, qz, k)
    }
  }
}

object UcrScan {

  /** Early-abandoning scan of one in-memory slice (static so task closures
    * never capture the engine instance).
    */
  private[baseline] def scanPartition(ids: Array[Long], zs: Array[Array[Float]],
                                      qz: Array[Float], k: Int): Array[(Long, Double)] = {
    val top = new TopK(k)
    var bsfSq = Double.PositiveInfinity
    var i = 0
    while (i < zs.length) {
      val dSq = Series.edSqEarlyAbandon(qz, zs(i), bsfSq)
      if (dSq <= bsfSq) { top.offer(dSq, ids(i)); bsfSq = top.boundSq }
      i += 1
    }
    top.drain()
  }

  /** Materialize z-normalized per-partition slices of the dataset. */
  def build(ds: Dataset[SeriesRecord], partitions: Int): UcrScan = {
    val input = ds.rdd.map(r => (r.id, Series.znormFinite(r.id, r.values))).repartition(partitions)
    val store = Partitions.persist(input) { it =>
      val buf = it.toArray
      buf.foreach { case (id, z) => Built.requireLength(id, z.length, buf(0)._2.length) }
      Iterator.single((buf.map(_._1), buf.map(_._2)))
    }
    // materializes the store and records the series length for `validate`
    val n = Built.storedLength(store) { case (_, zs) => zs.headOption.map(_.length) }
    new UcrScan(store, n)
  }
}
