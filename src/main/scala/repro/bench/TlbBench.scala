package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core.{Isax, QuantizedWordSpace, Series, Sfa}
import repro.data.Benchmark17
import repro.data.Benchmark17.DatasetSpec
import repro.data.SeriesGen
import repro.spark.{IndexConfig, McbSpark}

/** Tightness-of-lower-bound ablation (paper section V-E, Tables V and VI).
  *
  * TLB = LBD / true z-ED, averaged over every (query, series) pair of a
  * dataset; 1.0 means the bound is exact. One MCB statistics pass per dataset
  * serves all alphabet sizes (equi-depth bins of every power-of-two alphabet
  * nest dyadically inside the 256-level quantiles; equi-width bins derive from
  * min/max). Computation is one Spark job per dataset: partitions hold the
  * indexed series, queries are broadcast, and per-config (sum, count)
  * accumulators are reduced on the driver.
  */
object TlbBench {

  val Alphabets: Seq[Int] = Seq(4, 8, 16, 32, 64, 128, 256)
  val Methods: Seq[String] = Seq("SFA ED +VAR", "SFA EW +VAR", "iSAX")

  /** The engines' fixed word length and candidate coefficients. */
  private val Paper = IndexConfig()

  final case class Config(method: String, alpha: Int, space: QuantizedWordSpace)
    extends Serializable

  /** Mean TLB per (method, alphabet) for one dataset. */
  def forDataset(spark: SparkSession, spec: DatasetSpec, nQueries: Int,
                 sampleRate: Double = 1.0): Map[(String, Int), Double] = {
    val (n, l) = (spec.len, Paper.l)
    val ds = SeriesGen.dataset(spark, spec.profile, spec.count, spec.seed)
    val queries = SeriesGen.queries(spec.profile, nQueries, spec.seed)

    val stats = Sfa.fitStats(McbSpark.sample(ds, sampleRate, spec.seed), n, Paper.maxCoeff)
    val configs: Seq[Config] = Alphabets.flatMap { a =>
      Seq(
        Config("SFA ED +VAR", a, Sfa.modelFromStats(stats, l, a, Sfa.EquiDepth, Sfa.ByVariance).space),
        Config("SFA EW +VAR", a, Sfa.modelFromStats(stats, l, a, Sfa.EquiWidth, Sfa.ByVariance).space),
        Config("iSAX", a, Isax.space(n, l, a)),
      )
    }
    val qz = queries.map(Series.znorm)
    // per-query projections, one per config (PAA and the SFA selection differ)
    val qProj: Array[Array[Array[Double]]] =
      qz.map(q => configs.map(c => c.space.project(q)).toArray)

    val sc = spark.sparkContext
    val bConfigs = sc.broadcast(configs.toArray)
    val bQz = sc.broadcast(qz)
    val bQProj = sc.broadcast(qProj)

    val (sums, counts) = ds.rdd
      .mapPartitions { it =>
        val cfgs = bConfigs.value
        val qzs = bQz.value
        val qps = bQProj.value
        val sum = new Array[Double](cfgs.length)
        val cnt = new Array[Long](cfgs.length)
        it.foreach { rec =>
          val z = Series.znorm(rec.values)
          // series-side words per config
          val words = cfgs.map(c => c.space.word(z))
          var qi = 0
          while (qi < qzs.length) {
            val ed = math.sqrt(Series.edSq(qzs(qi), z))
            if (ed > 1e-9) {
              var ci = 0
              while (ci < cfgs.length) {
                val lb = math.sqrt(cfgs(ci).space.wordLbSq(qps(qi)(ci), words(ci), Double.PositiveInfinity))
                sum(ci) += lb / ed
                cnt(ci) += 1
                ci += 1
              }
            }
            qi += 1
          }
        }
        Iterator.single((sum, cnt))
      }
      .reduce { case ((s1, c1), (s2, c2)) =>
        (s1.zip(s2).map(t => t._1 + t._2), c1.zip(c2).map(t => t._1 + t._2))
      }
    bConfigs.destroy(); bQz.destroy(); bQProj.destroy()

    configs.zipWithIndex.map { case (c, i) =>
      (c.method, c.alpha) -> (if (counts(i) == 0) 0.0 else sums(i) / counts(i))
    }.toMap
  }

  /** Mean TLB over a suite of datasets: the shape of Tables V / VI. */
  def forSuite(spark: SparkSession, specs: Seq[DatasetSpec], nQueries: Int,
               sampleRate: Double = 1.0): Map[(String, Int), Double] = {
    val per = specs.map(s => forDataset(spark, s, nQueries, sampleRate))
    (for (m <- Methods; a <- Alphabets) yield {
      (m, a) -> per.map(_((m, a))).sum / per.size
    }).toMap
  }

  /** Table V: the UCR-like suite, 20 queries per dataset. */
  def table5(spark: SparkSession): Map[(String, Int), Double] =
    forSuite(spark, Benchmark17.ucrLike, nQueries = 20)

  def formatTable5(tlb: Map[(String, Int), Double]): String =
    formatTable(s"Table V analog: mean TLB on UCR-like datasets (l=${Paper.l})", tlb)

  /** Table VI: the 17 SOFA datasets at a quarter of `scale`, 15 queries each,
    * MCB fitted on a 25 % sample. Quarter-scale datasets keep the pair count
    * manageable; TLB is a mean over pairs and stabilizes quickly.
    */
  def table6(spark: SparkSession, scale: Double): Map[(String, Int), Double] =
    forSuite(spark, QueryBench.catalog(scale * 0.25), nQueries = 15, sampleRate = 0.25)

  def formatTable6(tlb: Map[(String, Int), Double]): String =
    formatTable(s"Table VI analog: mean TLB on the 17 SOFA datasets (l=${Paper.l})", tlb)

  /** Format as the paper's table: rows = methods, columns = alphabet sizes. */
  def formatTable(title: String, tlb: Map[(String, Int), Double]): String = {
    val sb = new StringBuilder
    sb.append(title).append('\n')
    sb.append(f"${"Method"}%-14s" + Alphabets.map(a => f"$a%8d").mkString).append('\n')
    Methods.foreach { m =>
      sb.append(f"$m%-14s" + Alphabets.map(a => f"${tlb((m, a))}%8.2f").mkString).append('\n')
    }
    sb.toString
  }
}
