package repro.bench

import repro.spark.IndexConfig

/** Shared benchmark knobs. `BENCH_SCALE` scales every dataset's series count
  * (1.0 = the catalog defaults, 1,140,000 series / ~950 MB of float data
  * overall).
  */
object Bench {
  val scale: Double = sys.env.getOrElse("BENCH_SCALE", "1.0").toDouble
  val nQueries: Int = sys.env.getOrElse("BENCH_QUERIES", "15").toInt

  /** Paper section V setup, with the leaf size scaled to our dataset sizes
    * (paper: 20k leaves on up-to-100M-series datasets; here ~100 on
    * up-to-24k-series datasets — the same leaves-per-worker order).
    */
  def cfg: IndexConfig = IndexConfig(leafCapacity = 100)
}
