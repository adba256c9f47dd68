package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel
import repro.core.{QuantizedWordSpace, Series, SeriesRecord}
import repro.index.TreeIndex

/** The Spark layering of the MESSI/SOFA tree index: one `TreeIndex` per
  * partition, built inside `mapPartitions` and persisted deserialized in
  * executor memory (the analog of a MESSI index worker set).
  *
  * A call of `search` or `searchBatch` is one Spark job. The driver
  * z-normalizes and projects every query once; each partition then answers
  * the queries one after another with `TreeIndex.searchProjected`, which
  * seeds its own best-so-far (BSF) from the query's leaf in that tree before
  * the best-first exact traversal. Every partition thus returns its true
  * local top-k, and the driver's merge of the local lists is the exact
  * global top-k. Unlike MESSI, the BSF is not shared across workers: sharing
  * it would cost a second Spark job per query (see DESIGN.md §4).
  */
final class DistributedIndex private[spark] (
    val name: String,
    val space: QuantizedWordSpace,
    val trees: RDD[TreeIndex],
) extends Built {

  override def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]] = {
    Built.validate(queries, k, space.n)
    val prepared = queries.map { q => val qz = Series.znorm(q); (qz, space.project(qz)) }.toArray
    Built.perPartition(trees, prepared, k) { case (t, (qz, qp)) => t.searchProjected(qz, qp, k) }
  }

  /** Aggregate Figure-8-style structure stats over all partition trees:
    * (total leaves, max depth, mean leaf fill).
    */
  def structureStats: (Int, Int, Double) = {
    val s = trees.map(_.structureStats).collect()
    val leaves = s.map(_._1).sum
    val fill = if (leaves == 0) 0.0 else s.map(x => x._3 * x._1).sum / leaves
    (leaves, s.map(_._2).max, fill)
  }

  override def close(): Unit = { trees.unpersist(blocking = false); () }
}

object DistributedIndex {

  /** Build per-partition trees over `ds`. Series are z-normalized inside the
    * partitions; the word space (iSAX breakpoints or a fitted SFA model) ships
    * in the task closure. An empty dataset is rejected on the driver.
    */
  def build(name: String, ds: Dataset[SeriesRecord], space: QuantizedWordSpace,
            leafCapacity: Int, partitions: Int): DistributedIndex = {
    val trees = ds.rdd
      .map(r => (r.id, r.values))
      .repartition(partitions)
      .mapPartitions(it => Iterator.single(TreeIndex.build(space, leafCapacity, it)))
      .persist(StorageLevel.MEMORY_ONLY)
    // materializes the trees before the first query, and counts their series
    Built.requireNonEmpty(trees.map(_.size.toLong).fold(0L)(_ + _) > 0)
    new DistributedIndex(name, space, trees)
  }
}
