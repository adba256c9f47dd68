package repro.core

/** The one row-major store of z-normalized series: ids, a rows x dim matrix
  * of values, and each row's squared norm (read by FAISS only). A tree holds
  * one in leaf order; UCR-P and FAISS share one per partition.
  */
final case class Slab(ids: Array[Long], dim: Int, flat: Array[Float],
                      normsSq: Array[Double]) extends Serializable {
  def rows: Int = ids.length
}

object Slab {

  /** Pack (id, z-normalized series) rows in order, with the first row's
    * length as `dim`; a row of another length fails the pack.
    */
  def pack(rows: Array[(Long, Array[Float])]): Slab = {
    val dim = if (rows.isEmpty) 0 else rows(0)._2.length
    val flat = new Array[Float](rows.length * dim)
    val norms = new Array[Double](rows.length)
    var r = 0
    while (r < rows.length) {
      val (id, z) = rows(r)
      require(z.length == dim,
        s"series $id has length ${z.length}, the first series of its partition has length $dim")
      System.arraycopy(z, 0, flat, r * dim, dim)
      var acc = 0.0
      var j = 0
      while (j < dim) { val v = z(j).toDouble; acc += v * v; j += 1 }
      norms(r) = acc
      r += 1
    }
    Slab(rows.map(_._1), dim, flat, norms)
  }
}
