package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table I analog: prints the benchmark catalog (paper counts next to the
  * reproduction's scaled counts) and validates its totals.
  */
class Table1CatalogBench extends AnyFunSuite {

  test("Table I: benchmark catalog") {
    val specs = QueryBench.catalog(Bench.scale)
    val table = QueryBench.formatTable1(specs)
    println(table)
    assert(specs.size == 17)
    assert(specs.map(_.paperCount).sum == 1_017_586_504L) // the paper's 1B series
    assert(table.contains("LenDB") && table.contains("TOTAL"))
  }
}
