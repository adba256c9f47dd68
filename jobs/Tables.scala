package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{QueryBench, TlbBench}

/** spark-submit entrypoint for the paper's tables: prints one table's analog,
  * run with the setup `QueryBench` and `TlbBench` define for it.
  * Usage: Tables <1-6> [scale]. `scale` (default 1.0) multiplies every
  * dataset's series count; Table V's UCR-like suite is not scaled.
  */
object Tables {

  /** Queries per dataset for Tables II–IV (paper: 100). */
  private val NQueries = 15

  private val withSpark: Map[String, (SparkSession, Double) => String] = Map(
    "2" -> ((spark, scale) => QueryBench.formatTable2(QueryBench.table2(spark, scale, NQueries))),
    "3" -> ((spark, scale) => QueryBench.formatTable3(QueryBench.table3(spark, scale, NQueries))),
    "4" -> ((spark, scale) => QueryBench.formatTable4(QueryBench.table4(spark, scale, NQueries))),
    "5" -> ((spark, _) => TlbBench.formatTable5(TlbBench.table5(spark))),
    "6" -> ((spark, scale) => TlbBench.formatTable6(TlbBench.table6(spark, scale))),
  )

  private def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val scale = args.lift(1).fold(1.0)(_.toDouble)
    args.headOption match {
      case Some("1") => println(QueryBench.formatTable1(QueryBench.catalog(scale)))
      case Some(t) if withSpark.contains(t) =>
        val spark = session(s"table$t")
        try println(withSpark(t)(spark, scale)) finally spark.stop()
      case _ =>
        System.err.println("usage: Tables <1-6> [scale]")
        sys.exit(2)
    }
  }
}
