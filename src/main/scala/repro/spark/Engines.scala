package repro.spark

import repro.core.Sfa

/** A built, queryable similarity-search engine over one dataset.
  *
  * `searchBatch` is the query path: every partition answers every query in
  * turn, and the driver merges the per-partition top-k of each query. Where
  * the partitions' objects live in this JVM (`local[*]`) the partitions are
  * answered in-process on a fixed thread pool, one task per partition, and
  * no Spark job runs; otherwise the batch is one Spark job (`Partitions`).
  * `search` is a batch of one (the paper's sequential-query protocol: all
  * workers cooperate on one query at a time). Answers are (id, distance)
  * lists ordered by (distance, id).
  */
trait Built {
  def name: String

  def search(query: Array[Float], k: Int): Array[(Long, Double)] =
    searchBatch(Seq(query), k)(0)

  def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]]

  /** The engine's persisted partition objects. */
  private[repro] def partitions: Partitions[_]

  /** Unpersist the partitions and drop them from the in-process registry. */
  def close(): Unit = partitions.close()
}

object Built {
  /** Merge per-partition top-k lists into the global top-k, deterministically
    * (distance, then id).
    */
  def mergeTopK(parts: Seq[Array[(Long, Double)]], k: Int): Array[(Long, Double)] =
    parts.flatten.sortBy { case (id, d) => (d, id) }.take(k).toArray

  /** Reject a bad batch on the driver, before any job runs: `k` must be
    * positive and every query must have the indexed series length `n` and
    * only finite values.
    */
  def validate(queries: Seq[Array[Float]], k: Int, n: Int): Unit = {
    require(k > 0, s"k must be positive, got $k")
    queries.iterator.zipWithIndex.foreach { case (q, i) =>
      require(q.length == n, s"query $i has length ${q.length}, the index holds series of length $n")
      require(q.forall(java.lang.Float.isFinite), s"query $i has a NaN or infinite value")
    }
  }

  /** Reject, on the driver at build, a dataset that holds no series. */
  def requireNonEmpty(nonEmpty: Boolean): Unit =
    require(nonEmpty, "the dataset holds no series; an index needs at least one")

  /** Answer every prepared query in every partition, in-process or in one
    * Spark job (`Partitions.map`), and return each query's merged global
    * top-k. An empty batch runs nothing. `answer` must not capture the
    * engine, only what a task needs.
    */
  def perPartition[P, Q](parts: Partitions[P], prepared: Array[Q], k: Int)
                        (answer: (P, Q) => Array[(Long, Double)]): Array[Array[(Long, Double)]] =
    if (prepared.isEmpty) Array.empty
    else {
      val byPart = parts.map(p => prepared.map(answer(p, _)))
      prepared.indices.map(qi => mergeTopK(byPart.map(_(qi)), k)).toArray
    }
}

/** Shared configuration for the MESSI/SOFA tree engines (paper section V
  * setup; leaf sizes scaled to our dataset sizes). Word length, alphabet,
  * candidate coefficients, binning and selection are the paper's fixed setup;
  * the TLB ablation sweeps alphabet and binning through `Sfa` directly.
  */
final case class IndexConfig(
    leafCapacity: Int = 1000,
    sampleRate: Double = 0.01,
    partitions: Int = 8,
    seed: Long = 42,
) {
  def l: Int = 16
  def alpha: Int = 256
  def maxCoeff: Int = 32
  def binning: Sfa.Binning = Sfa.EquiWidth
  def selection: Sfa.Selection = Sfa.ByVariance
}
