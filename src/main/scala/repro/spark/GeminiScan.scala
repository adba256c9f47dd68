package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, functions => F}
import repro.core.{QuantizedWordSpace, Series, SeriesRecord}

/** The GEMINI exact-search pipeline expressed purely on the DataFrame/Catalyst
  * API, with the lower-bound distance as a Spark UDF over a words column —
  * the "LBD filtering as a Spark UDF over partitioned data series" layering.
  *
  * Two phases per query, each a Catalyst plan:
  *  1. approximate: take the `approxCandidates` series with smallest word-level
  *     LBD, refine them with the exact distance on the driver -> BSF (the kth
  *     best exact distance);
  *  2. exact: `filter(lbd < bsf)` — a superset of every series that can beat
  *     the BSF (the GEMINI guarantee) — then exact-distance UDF and global
  *     top-k.
  *
  * This path demonstrates correctness of the Catalyst layering; the tree
  * engines are the performance path.
  */
final class GeminiScan private (
    val name: String,
    val space: QuantizedWordSpace,
    val df: DataFrame, // columns: id: long, z: array<float>, word: array<int>
    val approxCandidates: Int,
    val numPartitions: Int,
) extends Built {

  override def search(query: Array[Float], k: Int): Array[(Long, Double)] = {
    val qz = Series.znorm(query)
    // local copies only — a UDF closure over `this` would drag the DataFrame
    // field into task serialization
    val sp = space
    val qp = sp.project(qz)
    val c = math.max(approxCandidates, k)

    val lbUdf = F.udf { (w: Seq[Int]) =>
      math.sqrt(sp.wordLbSq(qp, w.toArray, Double.PositiveInfinity))
    }
    val edUdf = F.udf { (z: Seq[Float]) =>
      Series.ed(qz, z.toArray)
    }
    val withLb = df.withColumn("lbd", lbUdf(F.col("word")))

    // Phase 1: approximate answer -> BSF.
    val approx = withLb
      .orderBy(F.col("lbd"))
      .limit(c)
      .select(F.col("id"), edUdf(F.col("z")).as("dist"))
      .collect()
      .map(r => (r.getLong(0), r.getDouble(1)))
      .sortBy { case (id, d) => (d, id) }
    val bsf = approx.take(k).lastOption.map(_._2).getOrElse(Double.PositiveInfinity)

    // Phase 2: GEMINI filter + exact refinement of the surviving superset.
    val survivors = withLb
      .filter(F.col("lbd") < bsf)
      .select(F.col("id"), edUdf(F.col("z")).as("dist"))
      .collect()
      .map(r => (r.getLong(0), r.getDouble(1)))

    (approx ++ survivors).distinct.sortBy { case (id, d) => (d, id) }.take(k)
  }

  override def searchBatch(queries: Seq[Array[Float]], k: Int): Array[Array[(Long, Double)]] =
    queries.map(search(_, k)).toArray

  override def searchAllTimed(queries: Seq[Array[Float]], k: Int)
      : (Array[Array[(Long, Double)]], Array[Double]) = {
    val out = queries.map { q =>
      val t0 = System.nanoTime()
      val r = search(q, k)
      (r, (System.nanoTime() - t0) / 1e6)
    }
    (out.map(_._1).toArray, out.map(_._2).toArray)
  }

  override def close(): Unit = { df.unpersist(blocking = false); () }
}

object GeminiScan {

  /** Precompute (id, z-normalized values, word) as a persisted DataFrame. */
  def build(ds: Dataset[SeriesRecord], space: QuantizedWordSpace,
            partitions: Int, approxCandidates: Int = 64): GeminiScan = {
    val spark = ds.sparkSession
    import spark.implicits._
    val df = ds
      .map { r =>
        val z = Series.znorm(r.values)
        (r.id, z, space.word(z))
      }
      .toDF("id", "z", "word")
      .repartition(partitions)
      .persist()
    df.count()
    new GeminiScan(s"GEMINI-UDF(${space.name})", space, df, approxCandidates, partitions)
  }
}
