package repro.bench

/** Shared benchmark knobs. `BENCH_SCALE` scales every dataset's series count
  * (1.0 = the catalog defaults, 1,140,000 series / ~950 MB of float data
  * overall).
  */
object Bench {
  val scale: Double = sys.env.getOrElse("BENCH_SCALE", "1.0").toDouble
  val nQueries: Int = sys.env.getOrElse("BENCH_QUERIES", "15").toInt
}
