package repro.baseline

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.core.{Series, SeriesRecord, Slab, TopK}
import repro.spark.{Engine, Partitions}

/** UCR Suite-P analog (paper's parallel sequential-scan competitor): each
  * partition owns a slab of the in-memory z-normalized series and scans it
  * with an early-abandoning Euclidean distance against a per-slab
  * best-so-far; partitions synchronize only at the end (driver merge). No
  * index, no lower bounds — the paper's "optimized serial scan" baseline.
  * Slabs are answered in-process or in one Spark job, as `Partitions` decides.
  */
final class UcrScan private (
    override private[repro] val partitions: Partitions[Slab],
    val n: Int,
) extends Engine[Slab, Array[Float]] {

  override def name: String = "UCR-P"

  /** Per-row view of the slabs, (ids, z-normalized series) per partition:
    * derived on each use, never persisted. No engine path reads it; nnbench's
    * traced scan replay does, so it can go once nnbench reads the engines'
    * own counters (ROADMAP item 2).
    */
  def store: RDD[(Array[Long], Array[Array[Float]])] =
    partitions.rdd.map(s => (s.ids, Array.tabulate(s.rows)(r => s.flat.slice(r * s.dim, (r + 1) * s.dim))))

  override protected def prepare(qz: Array[Float]): Array[Float] = qz

  override protected def kernel: (Slab, Array[Float], Int) => Array[(Long, Double)] = UcrScan.scanSlab
}

object UcrScan {

  /** Early-abandoning scan of one slab. */
  private[baseline] def scanSlab(slab: Slab, qz: Array[Float], k: Int): Array[(Long, Double)] = {
    val top = new TopK(k)
    var bsfSq = Double.PositiveInfinity
    var r = 0
    while (r < slab.rows) {
      val dSq = Series.edSqEarlyAbandonAt(qz, slab.flat, r * slab.dim, bsfSq)
      if (dSq <= bsfSq) { top.offer(dSq, slab.ids(r)); bsfSq = top.boundSq }
      r += 1
    }
    top.drain()
  }

  /** Materialize the z-normalized dataset as per-partition slabs. */
  def build(ds: Dataset[SeriesRecord], partitions: Int): UcrScan = {
    val (store, n) = FaissFlat.slabs(ds, partitions)
    new UcrScan(store, n)
  }
}
