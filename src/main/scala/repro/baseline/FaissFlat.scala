package repro.baseline

import org.apache.spark.sql.Dataset
import repro.core.{Series, SeriesRecord, Slab, TopK}
import repro.spark.{Built, Engine, Partitions}

/** FAISS IndexFlatL2 analog (paper's exact vector-search competitor): exact
  * brute-force L2 with the ||q||^2 + ||x||^2 - 2 q.x decomposition over a
  * per-partition row-major float matrix, no pruning and no early abandoning.
  * As in the paper's protocol, FAISS processes queries in mini-batches: a
  * whole batch is answered in one pass over the slabs, in parallel over
  * partitions, in-process or in one Spark job as `Partitions` decides.
  */
final class FaissFlat private (
    override private[repro] val partitions: Partitions[Slab],
    val n: Int,
) extends Engine[Slab, Array[Float]] {

  override def name: String = "FAISS"

  override protected def prepare(qz: Array[Float]): Array[Float] = qz

  override protected def kernel: (Slab, Array[Float], Int) => Array[(Long, Double)] = FaissFlat.searchSlab
}

object FaissFlat {

  private[baseline] def searchSlab(slab: Slab, qz: Array[Float], k: Int): Array[(Long, Double)] = {
    val dim = slab.dim
    var qNormSq = 0.0
    var j = 0
    while (j < dim) { val v = qz(j).toDouble; qNormSq += v * v; j += 1 }
    val top = new TopK(k)
    var bsfSq = Double.PositiveInfinity
    var r = 0
    while (r < slab.rows) {
      val base = r * dim
      var dot = 0.0
      j = 0
      while (j < dim) { dot += qz(j).toDouble * slab.flat(base + j); j += 1 }
      val dSq = math.max(0.0, qNormSq + slab.normsSq(r) - 2.0 * dot)
      if (dSq <= bsfSq) { top.offer(dSq, slab.ids(r)); bsfSq = top.boundSq }
      r += 1
    }
    top.drain()
  }

  /** Materialize per-partition slabs of the z-normalized dataset and return
    * them with the series length. A stored NaN or infinite value, or a series
    * whose length differs from the first series of its partition, fails its
    * build task. An empty dataset, or partitions holding different lengths,
    * is rejected on the driver, and the store is then closed.
    */
  private[baseline] def slabs(ds: Dataset[SeriesRecord], partitions: Int): (Partitions[Slab], Int) = {
    val input = ds.rdd.map(r => (r.id, Series.znormFinite(r.id, r.values))).repartition(partitions)
    val store = Partitions.persist(input) { it =>
      val rows = it.toArray
      if (rows.isEmpty) Iterator.empty else Iterator.single(Slab.pack(rows))
    }
    // one job materializes the store and finds the series length for `searchBatch`
    val n = store.closeOnFailure {
      val dims = store.rdd.map(_.dim).collect().distinct
      Built.requireNonEmpty(dims.exists(_ > 0))
      require(dims.length == 1, s"partitions hold series of different lengths, from ${dims.min} to ${dims.max}")
      dims(0)
    }
    (store, n)
  }

  /** Materialize the z-normalized dataset as per-partition slabs. */
  def build(ds: Dataset[SeriesRecord], partitions: Int): FaissFlat = {
    val (store, n) = slabs(ds, partitions)
    new FaissFlat(store, n)
  }
}
