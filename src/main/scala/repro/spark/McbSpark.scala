package repro.spark

import org.apache.spark.sql.Dataset
import repro.core.{Series, SeriesRecord, Sfa}

/** The Spark stage of MCB (Algorithm 1): draw the sample. The fit itself is
  * `Sfa.fit` on the driver, since the sample is small (1% by default).
  */
object McbSpark {

  /** A `sampleRate` sample of `ds` (paper default 1%), collected to the
    * driver and z-normalized, in one Spark job. Falls back to the first 64
    * series when the sample comes back empty (tiny test datasets). A sampled
    * series holding a NaN or infinite value is rejected by its id.
    */
  def sample(ds: Dataset[SeriesRecord], sampleRate: Double = 0.01,
             seed: Long = 42): Array[Array[Float]] = {
    val sampled = ds.sample(withReplacement = false, sampleRate, seed).collect()
    val rows = if (sampled.nonEmpty) sampled else ds.limit(64).collect()
    rows.map(r => Series.znormFinite(r.id, r.values))
  }

  /** One-shot fit: `Sfa.fit` over `sample(ds, sampleRate, seed)`. */
  def fit(ds: Dataset[SeriesRecord], n: Int, l: Int = 16, alpha: Int = 256,
          maxCoeff: Int = 32, sampleRate: Double = 0.01, seed: Long = 42,
          binning: Sfa.Binning = Sfa.EquiWidth,
          selection: Sfa.Selection = Sfa.ByVariance): Sfa.Model =
    Sfa.fit(sample(ds, sampleRate, seed), n, l, alpha, maxCoeff, binning, selection)
}
