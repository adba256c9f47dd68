package repro.spark

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import repro.core.{QuantizedWordSpace, Series, SeriesRecord}
import repro.index.TreeIndex

/** The Spark layering of the MESSI/SOFA tree index: one `TreeIndex` per
  * partition, built in a Spark task and persisted deserialized in executor
  * memory (the analog of a MESSI index worker set).
  *
  * The driver z-normalizes and projects every query of a call once; each
  * partition's tree then answers the queries one after another with
  * `TreeIndex.searchProjected`, which seeds its own best-so-far (BSF) from
  * the query's leaf in that tree before the best-first exact traversal.
  * Under `local[*]` the trees answer in-process, one pool task per tree;
  * otherwise a call is one Spark job (`Partitions`). Every partition thus
  * returns its true local top-k, and the driver's merge of the local lists
  * is the exact global top-k. Unlike MESSI, the BSF is not shared across
  * workers (see DESIGN.md §4).
  */
final class DistributedIndex private[spark] (
    val name: String,
    val space: QuantizedWordSpace,
    override private[repro] val partitions: Partitions[TreeIndex],
) extends Built {

  val trees: RDD[TreeIndex] = partitions.rdd

  override def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]] = {
    Built.validate(queries, k, space.n)
    val prepared = queries.map { q => val qz = Series.znorm(q); (qz, space.project(qz)) }.toArray
    Built.perPartition(partitions, prepared, k) { case (t, (qz, qp)) => t.searchProjected(qz, qp, k) }
  }

  /** Aggregate Figure-8-style structure stats over all partition trees:
    * (total leaves, max depth, mean leaf fill).
    */
  def structureStats: (Int, Int, Double) = {
    val s = partitions.map(_.structureStats)
    val leaves = s.map(_._1).sum
    val fill = if (leaves == 0) 0.0 else s.map(x => x._3 * x._1).sum / leaves
    (leaves, s.map(_._2).max, fill)
  }
}

object DistributedIndex {

  /** Build per-partition trees over `ds`. Series are z-normalized inside the
    * partitions; the word space (iSAX breakpoints or a fitted SFA model) ships
    * in the task closure. An empty dataset is rejected on the driver.
    */
  def build(name: String, ds: Dataset[SeriesRecord], space: QuantizedWordSpace,
            leafCapacity: Int, partitions: Int): DistributedIndex = {
    val trees = Partitions.persist(ds.rdd.map(r => (r.id, r.values)).repartition(partitions)) { it =>
      Iterator.single(TreeIndex.build(space, leafCapacity, it))
    }
    // materializes the trees before the first query, and counts their series
    trees.closeOnFailure(Built.requireNonEmpty(trees.rdd.map(_.size.toLong).fold(0L)(_ + _) > 0))
    new DistributedIndex(name, space, trees)
  }
}
