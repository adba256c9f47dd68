package repro.bench

import repro.SparkSpec

/** Table V analog: mean TLB on the UCR-archive-like suite for SFA equi-depth
  * +VAR, SFA equi-width +VAR, and iSAX, alphabet sizes 4..256, l = 16.
  */
class Table5TlbUcrBench extends SparkSpec {

  test("Table V: mean TLB on UCR-like datasets") {
    val tlb = TlbBench.table5(spark)
    println(TlbBench.formatTable5(tlb))

    // paper shape: SFA EW +VAR > iSAX at every alphabet size; improvement is
    // largest at small alphabets
    TlbBench.Alphabets.foreach { a =>
      val ew = tlb(("SFA EW +VAR", a))
      val isax = tlb(("iSAX", a))
      assert(ew > isax, s"alpha=$a: SFA EW $ew should beat iSAX $isax")
    }
    val gapSmall = tlb(("SFA EW +VAR", 4)) - tlb(("iSAX", 4))
    assert(gapSmall > 0.0, s"small-alphabet gap $gapSmall")
  }
}
