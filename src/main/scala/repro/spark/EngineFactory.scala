package repro.spark

import org.apache.spark.sql.Dataset
import repro.baseline.{FaissFlat, UcrScan}
import repro.core.{Isax, SeriesRecord}

/** Builders for the four competitors of the paper's evaluation (Section V-a):
  * SOFA, MESSI, UCR Suite-P, FAISS IndexFlatL2 — all over the same
  * `Dataset[SeriesRecord]`.
  */
object EngineFactory {

  /** SOFA = MCB fit on a sample of `ds` (SFA, equi-width, variance selection
    * by default) + the MESSI-style tree over SFA words.
    */
  def sofa(ds: Dataset[SeriesRecord], n: Int, cfg: IndexConfig): DistributedIndex = {
    val model = McbSpark.fit(ds, n, cfg.l, cfg.alpha, cfg.maxCoeff, cfg.sampleRate,
                             cfg.seed, cfg.binning, cfg.selection)
    DistributedIndex.build("SOFA", ds, model.space, cfg.leafCapacity, cfg.partitions)
  }

  /** MESSI = the same tree over iSAX words (fixed N(0,1) quantization). */
  def messi(ds: Dataset[SeriesRecord], n: Int, cfg: IndexConfig): DistributedIndex =
    DistributedIndex.build("MESSI", ds, Isax.space(n, cfg.l, cfg.alpha),
                           cfg.leafCapacity, cfg.partitions)

  def ucr(ds: Dataset[SeriesRecord], partitions: Int): UcrScan =
    UcrScan.build(ds, partitions)

  def faiss(ds: Dataset[SeriesRecord], partitions: Int): FaissFlat =
    FaissFlat.build(ds, partitions)
}
