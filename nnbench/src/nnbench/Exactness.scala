package nnbench

import repro.core.Series

import scala.collection.parallel.CollectionConverters._

/** The exactness gate: every answer of every engine against a Spark-free
  * brute-force reference over `Series.edSq`, computed after the timed phase.
  * Distances must agree within 1e-4 relative; ids must agree at every rank
  * whose reference distance is not tied (within that tolerance) with another
  * of the reference's top k+1.
  */
object Exactness {
  final case class Result(failed: Map[String, Int], examples: Seq[String])

  def tol(d: Double): Double = 1e-4 * math.max(1.0, math.abs(d))

  /** Top-`k` (id, squared distance) of `qz` over `data`, ordered by (distance, id). */
  def topKSq(data: Array[Array[Float]], qz: Array[Float], k: Int): Array[(Long, Double)] = {
    val heap = new java.util.PriorityQueue[(Double, Long)](k + 1,
      (a: (Double, Long), b: (Double, Long)) =>
        if (a._1 != b._1) java.lang.Double.compare(b._1, a._1) else java.lang.Long.compare(b._2, a._2))
    var i = 0
    while (i < data.length) {
      val d = Series.edSq(qz, data(i))
      if (heap.size < k) heap.add((d, i.toLong))
      else if (d < heap.peek()._1) { heap.poll(); heap.add((d, i.toLong)) }
      i += 1
    }
    Array.fill(heap.size)(heap.poll()).reverse.map { case (d, id) => (id, d) }
  }

  /** Reference top-(k+1) of each measured query index, squared distances;
    * computed once per distinct query of the pool.
    */
  def reference(run: Run, queries: Seq[Int]): Int => Array[(Long, Double)] = {
    val data = run.localZ
    val n = run.pool.length
    val byPool = queries.map(_ % n).distinct.par
      .map(p => p -> topKSq(data, Series.znorm(run.pool(p)), run.wl.k + 1)).seq.toMap
    q => byPool(q % n)
  }

  /** Why an answer disagrees with the reference, or None when it is exact. */
  def disagreement(ans: Array[(Long, Double)], refSq: Array[(Long, Double)], k: Int): Option[String] = {
    val ref = refSq.map { case (id, d) => (id, math.sqrt(d)) }
    val want = math.min(k, ref.length)
    if (ans.length != want) return Some(s"${ans.length} results, expected $want")
    (0 until want).iterator.flatMap { i =>
      val (id, d) = ans(i)
      val (rid, rd) = ref(i)
      val tied = ref.indices.exists(j => j != i && math.abs(ref(j)._2 - rd) <= tol(rd))
      if (math.abs(d - rd) > tol(rd)) Some(s"rank $i distance $d, reference $rd")
      else if (!tied && id != rid) Some(s"rank $i id $id, reference $rid (distance $rd)")
      else None
    }.nextOption()
  }

  def check(run: Run): Result = {
    val b = run.wl.block
    val ref = reference(run, run.slots.flatMap(_.calls.flatMap(c => c.first until c.first + b)))
    val examples = Seq.newBuilder[String]
    val failed = run.slots.map { s =>
      s.key -> s.calls.map { c =>
        c.answers match {
          case None => b
          case Some(answers) =>
            answers.indices.count { j =>
              val why = disagreement(answers(j), ref(c.first + j), run.wl.k)
              why.foreach(w => examples += s"${s.key} query ${c.first + j}: $w")
              why.isDefined
            } + math.max(0, b - answers.length)
        }
      }.sum
    }.toMap
    Result(failed, examples.result().take(20))
  }
}
