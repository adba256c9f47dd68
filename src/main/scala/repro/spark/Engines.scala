package repro.spark

import org.apache.spark.rdd.RDD
import repro.core.Sfa

/** A built, queryable similarity-search engine over one dataset.
  *
  * `searchBatch` is the query path: the whole batch is answered in a single
  * Spark job in which every partition answers every query in turn, and the
  * driver merges the per-partition top-k of each query. `search` is a batch
  * of one, so it too is one Spark job (the paper's sequential-query protocol:
  * all workers cooperate on one query at a time).
  *
  * `searchAllTimed` runs the same single job and reports a modelled
  * per-query time from the in-task timings, which keeps local-mode scheduler
  * overhead (~tens of ms per job) out of the paper tables. The model differs
  * per engine (see DESIGN.md §4): the tree engines report the mean over
  * partitions, UCR-P the maximum, and FAISS its batch time amortized over the
  * batch.
  */
trait Built {
  def name: String
  def numPartitions: Int

  def search(query: Array[Float], k: Int): Array[(Long, Double)] =
    searchBatch(Seq(query), k)(0)

  def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]]

  /** (results per query, modelled per-query milliseconds). */
  def searchAllTimed(queries: Seq[Array[Float]], k: Int): (Array[Array[(Long, Double)]], Array[Double])

  def close(): Unit
}

object Built {
  /** Merge per-partition top-k lists into the global top-k, deterministically
    * (distance, then id).
    */
  def mergeTopK(parts: Seq[Array[(Long, Double)]], k: Int): Array[(Long, Double)] =
    parts.flatten.sortBy { case (id, d) => (d, id) }.take(k).toArray

  /** Reject a bad batch on the driver, before any job runs: `k` must be
    * positive and every query must have the indexed series length `n`.
    */
  def validate(queries: Seq[Array[Float]], k: Int, n: Int): Unit = {
    require(k > 0, s"k must be positive, got $k")
    queries.iterator.zipWithIndex.foreach { case (q, i) =>
      require(q.length == n, s"query $i has length ${q.length}, the index holds series of length $n")
    }
  }

  /** One partition's answer to one query: its local top-k and the
    * milliseconds it took inside the task.
    */
  type Answer = (Array[(Long, Double)], Double)

  /** Answer every prepared query in every partition in one Spark job. Returns,
    * per query, each partition's `Answer`. An empty batch runs no job.
    * `answer` must not capture the engine, only what the task needs.
    */
  def perPartition[P, Q](parts: RDD[P], prepared: Array[Q])
                        (answer: (P, Q) => Array[(Long, Double)]): Array[Array[Answer]] =
    if (prepared.isEmpty) Array.empty
    else {
      val byPart = parts.map { p =>
        prepared.map { q =>
          val t0 = System.nanoTime()
          val r = answer(p, q)
          (r, (System.nanoTime() - t0) / 1e6)
        }
      }.collect()
      prepared.indices.map(qi => byPart.map(_(qi))).toArray
    }

  /** The global top-k of each query from its per-partition answers. */
  def mergeEach(answers: Array[Array[Answer]], k: Int): Array[Array[(Long, Double)]] =
    answers.map(parts => mergeTopK(parts.toSeq.map(_._1), k))
}

/** Shared configuration for the MESSI/SOFA tree engines (paper section V
  * setup; leaf sizes scaled to our dataset sizes).
  */
final case class IndexConfig(
    l: Int = 16,
    alpha: Int = 256,
    leafCapacity: Int = 1000,
    maxCoeff: Int = 32,
    sampleRate: Double = 0.01,
    binning: Sfa.Binning = Sfa.EquiWidth,
    selection: Sfa.Selection = Sfa.ByVariance,
    partitions: Int = 8,
    seed: Long = 42,
)
