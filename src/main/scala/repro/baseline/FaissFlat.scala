package repro.baseline

import org.apache.spark.sql.Dataset
import repro.core.{Series, SeriesRecord, TopK}
import repro.spark.{Built, Partitions}

/** FAISS IndexFlatL2 analog (paper's exact vector-search competitor): exact
  * brute-force L2 with the ||q||^2 + ||x||^2 - 2 q.x decomposition over a
  * per-partition row-major float matrix, no pruning and no early abandoning.
  * As in the paper's protocol, FAISS processes queries in mini-batches: a
  * whole batch is answered in one pass over the slabs, in parallel over
  * partitions, in-process or in one Spark job as `Partitions` decides.
  */
final class FaissFlat private (
    override private[repro] val partitions: Partitions[FaissFlat.Slab],
    val n: Int,
) extends Built {

  override def name: String = "FAISS"

  override def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]] = {
    Built.validate(queries, k, n)
    Built.perPartition(partitions, queries.map(Series.znorm).toArray, k) {
      (slab, qz) => FaissFlat.searchSlab(slab, qz, k)
    }
  }
}

object FaissFlat {

  /** One partition's flat store, shared with UCR-P: ids, a rows x dim
    * row-major matrix of z-normalized values, and precomputed squared row
    * norms (read by FAISS only).
    */
  final case class Slab(ids: Array[Long], dim: Int, flat: Array[Float],
                        normsSq: Array[Double]) extends Serializable {
    def rows: Int = ids.length
  }

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
      val buf = it.toArray
      if (buf.isEmpty) Iterator.empty
      else {
        val dim = buf.head._2.length
        val flat = new Array[Float](buf.length * dim)
        val norms = new Array[Double](buf.length)
        var r = 0
        while (r < buf.length) {
          val (id, z) = buf(r)
          require(z.length == dim,
            s"series $id has length ${z.length}, the first series of its partition has length $dim")
          System.arraycopy(z, 0, flat, r * dim, dim)
          var acc = 0.0
          var j = 0
          while (j < dim) { val v = z(j).toDouble; acc += v * v; j += 1 }
          norms(r) = acc
          r += 1
        }
        Iterator.single(Slab(buf.map(_._1), dim, flat, norms))
      }
    }
    // one job materializes the store and finds the series length for `validate`
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
