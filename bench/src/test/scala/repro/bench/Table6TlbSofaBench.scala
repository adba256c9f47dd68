package repro.bench

import repro.SparkSpec

/** Table VI analog: mean TLB on the 17 SOFA benchmark datasets (scaled) for
  * SFA equi-depth +VAR, SFA equi-width +VAR, and iSAX, alphabets 4..256.
  */
class Table6TlbSofaBench extends SparkSpec {

  test("Table VI: mean TLB on the 17 SOFA datasets") {
    val tlb = TlbBench.table6(spark, Bench.scale)
    println(TlbBench.formatTable6(tlb))

    // paper shape: SFA EW +VAR wins at large alphabets; equi-depth is
    // competitive at small alphabets; iSAX trails at alpha = 256
    val ew256 = tlb(("SFA EW +VAR", 256))
    val isax256 = tlb(("iSAX", 256))
    assert(ew256 > isax256, s"SFA EW $ew256 should beat iSAX $isax256 at alpha=256")
  }
}
