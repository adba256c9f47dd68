package nnbench

import org.json4s.{JObject, JValue}
import repro.baseline.UcrScan
import repro.core.{QuantizedWordSpace, Series}
import repro.data.SeriesGen
import repro.index.TreeIndex
import repro.spark.{Built, DistributedIndex, McbSpark}

import scala.collection.mutable.ArrayBuffer

/** Per-layer metrics of a traced run, named after the repo's modules. Spans
  * wrap the benchmark's own calls into each layer; Spark's share comes from
  * the `JobListener`; the tree and scan layers are replayed Spark-free on the
  * driver over the engines' own partitions.
  */
object Layers {
  import Stats._

  /** Queries replayed per engine for the index, baseline and core layers. */
  val ReplayQueries = 16
  /** Calls per engine in the exact-count pass. */
  val CountCalls = 4
  /** Times SOFA's two build steps are timed apart, after the measured phase. */
  val SofaStepBuilds = 3

  private val Trees = Seq("sofa", "messi")

  /** SOFA's build steps, `McbSpark.fit` and `DistributedIndex.build` on the
    * fitted space, each in its own span. The engine under test is built by
    * `EngineFactory.sofa` in every run; this side build must reproduce its
    * tree exactly, or the run fails rather than time a stale copy.
    */
  private def sofaBuildSteps(run: Run): Unit = {
    import run.{cfg, ds, spec}
    val engine = run.slot("sofa").built.asInstanceOf[DistributedIndex].structureStats
    (0 until SofaStepBuilds).foreach { _ =>
      val model = run.tracer.span("sofa.mcb_fit") {
        McbSpark.fit(ds, spec.len, cfg.l, cfg.alpha, cfg.maxCoeff, cfg.sampleRate, cfg.seed,
                     cfg.binning, cfg.selection)
      }
      val idx = run.tracer.span("sofa.index_build") {
        DistributedIndex.build("SOFA", ds, model.space, cfg.leafCapacity, cfg.partitions)
      }
      try require(idx.structureStats == engine,
        s"SOFA built step by step has structure ${idx.structureStats}, EngineFactory.sofa $engine")
      finally idx.close()
    }
  }

  def metrics(run: Run, calibEndMs: Double): JObject = {
    val m = ArrayBuffer.empty[(String, JValue)]
    def put(name: String, v: Double, unit: String): Unit = m += name -> metric(v, unit)
    val sc = run.spark.sparkContext
    val listener = run.listener.get
    val k = run.wl.k
    val block = run.wl.block

    // Exact-count pass: fixed calls at fixed queries, so counts repeat exactly.
    val countGroups = run.slots.map { s =>
      s.key -> (0 until CountCalls).map { c =>
        val g = s"count:${s.key}:$c"
        sc.setJobGroup(g, g, interruptOnCancel = false)
        try run.answer(s.built, c * block, run.query) finally sc.clearJobGroup()
        g
      }
    }.toMap
    listener.drain(sc)
    val byGroup = listener.tasksByGroup
    val jobsByGroup = listener.jobsByGroup

    // Driver-side replay inputs.
    val replayQs = 0 until ReplayQueries
    val ref = Exactness.reference(run, replayQs)
    val qz = replayQs.map(q => Series.znorm(run.pool(q))).toArray
    val kthSq = replayQs.map(q => ref(q)(math.min(k, ref(q).length) - 1)._2).toArray

    // repro.spark: dispatch, per query of each traced call.
    val prepMs = run.slots.map(s => s.key -> median(replayQs.map { q =>
      val t0 = System.nanoTime()
      val z = Series.znorm(run.pool(q))
      if (Trees.contains(s.key)) s.built.asInstanceOf[DistributedIndex].space.project(z)
      (System.nanoTime() - t0) / 1e6
    })).toMap

    val replay = Trees.map(key => key -> TreeReplay(run.slot(key).built.asInstanceOf[DistributedIndex], qz, k)).toMap
    val scanStore = run.slot("ucr").built.asInstanceOf[UcrScan].store.collect()
    lazy val scanMerge = scanMergeMs(scanStore, qz, k)

    run.slots.foreach { s =>
      val key = s.key
      val counted = countGroups(key)
      val nq = (CountCalls * block).toDouble
      put(s"$key.jobs_per_query", counted.map(g => jobsByGroup.getOrElse(g, 0)).sum / nq, "count")
      put(s"$key.tasks_per_query", counted.map(g => byGroup.getOrElse(g, Nil).size).sum / nq, "count")

      val traced = s.calls.filter(c => c.traced && c.answers.isDefined)
      val perCall = traced.map { c =>
        val tasks = byGroup.getOrElse(s"$key:${c.first}", Nil)
        val slowest = tasks.groupBy(_._1).values.map(_.map(_._2.cpuMs).max).sum
        (c, tasks.map(_._2), slowest)
      }
      val mergeMs = if (Trees.contains(key)) replay(key).mergeMs else scanMerge
      put(s"$key.sched_delay_ms", median(perCall.map(_._2.map(_.schedDelayMs).sum / block).toSeq), "ms")
      put(s"$key.task_deser_ms", median(perCall.map(_._2.map(_.deserCpuNs / 1e6).sum / block).toSeq), "ms")
      put(s"$key.result_ser_ms", median(perCall.map(_._2.map(_.resultSerMs.toDouble).sum / block).toSeq), "ms")
      put(s"$key.dispatch_ms", median(perCall.map { case (c, _, slowest) =>
        c.ns / 1e6 / block - prepMs(key) - slowest / block - mergeMs
      }.toSeq), "ms")
      if (key == "ucr" || key == "faiss")
        put(s"$key.task_ms", median(perCall.map(_._3 / block).toSeq), "ms")
      put(s"$key.trace_overhead_ms", median(run.perQueryMs(s, traced = true)) - median(run.perQueryMs(s)), "ms")
    }

    // repro.spark build layer.
    sofaBuildSteps(run)
    put("sofa.mcb_fit_s", median(run.tracer.named("sofa.mcb_fit").map(_.ms / 1e3)), "s")
    run.slots.foreach { s =>
      val span = if (s.key == "sofa") "sofa.index_build" else s"${s.key}.build"
      put(s"${s.key}.index_build_s", median(run.tracer.named(span).map(_.ms / 1e3)), "s")
    }

    // repro.index: tree replay, structure, survivors, local build.
    Trees.foreach { key =>
      val r = replay(key)
      val idx = run.slot(key).built.asInstanceOf[DistributedIndex]
      val (leaves, depth, fill) = idx.structureStats
      put(s"$key.tree.approx_max_ms", median(r.approxMs.map(_.max).toSeq), "ms")
      put(s"$key.tree.approx_sum_ms", median(r.approxMs.map(_.sum).toSeq), "ms")
      put(s"$key.tree.search_max_ms", median(r.searchMs.map(_.max).toSeq), "ms")
      put(s"$key.tree.search_sum_ms", median(r.searchMs.map(_.sum).toSeq), "ms")
      put(s"$key.tree.leaves", leaves.toDouble, "count")
      put(s"$key.tree.depth_max", depth.toDouble, "count")
      put(s"$key.tree.fill_mean", fill, "count")
      val (lbd, leaf) = survivors(r.trees, idx.space, qz, kthSq)
      put(s"$key.lbd_survivors", lbd, "count")
      put(s"$key.leaf_survivors", leaf, "count")
      put(s"$key.tree.build_local_ms", localBuildMs(run, r.trees.head, idx.space), "ms")
    }

    // repro.core: ns per call on workload data.
    core(run, qz, kthSq).foreach { case (name, v) => put(name, v, "ns") }

    // repro.baseline: Spark-free early-abandoning scan over the UCR partitions.
    val scans = qz.toSeq.map(q => () => Built.mergeTopK(scanParts(scanStore, q, k).toSeq, k))
    put("scan.local_ms", median(replayTwice(scans)), "ms")

    // repro.data and host.
    put("spark.session_s", run.sessionS, "s")
    put("data.gen_s", run.genS, "s")
    put("jvm.gc_ms", run.gcMs, "ms")
    put("host.calib_ms", run.calibStartMs, "ms")
    put("host.calib_drift_pct", 100.0 * (calibEndMs - run.calibStartMs) / run.calibStartMs, "%")
    JObject(m.toList)
  }

  /** Times each thunk twice and keeps the second (warm) timing, in ms. */
  private def replayTwice(fs: Seq[() => Any]): Seq[Double] = {
    fs.foreach(_())
    fs.map { f => val t0 = System.nanoTime(); f(); (System.nanoTime() - t0) / 1e6 }
  }

  /** The distributed index's two phases replayed on collected partitions:
    * per query and partition, the approximate and exact search times.
    */
  final case class TreeReplay(trees: Array[TreeIndex], approxMs: Array[Array[Double]],
                              searchMs: Array[Array[Double]], mergeMs: Double)

  object TreeReplay {
    def apply(idx: DistributedIndex, qz: Array[Array[Float]], k: Int): TreeReplay = {
      val trees = idx.trees.collect()
      def pass(): (Array[Array[Double]], Array[Array[Double]], Seq[Double]) = {
        val rows = qz.map { z =>
          val qp = idx.space.project(z)
          val approx = trees.map(t => timedMs(t.approxSearch(z, qp, k)))
          val top = Built.mergeTopK(approx.map(_._1).toSeq, k)
          val bsf = if (top.length < k) Double.PositiveInfinity else top.last._2 * top.last._2
          val exact = trees.map(t => timedMs(t.searchProjected(z, qp, k, bsf)))
          val merge = timedMs(Built.mergeTopK((approx ++ exact).map(_._1).toSeq, k))._2
          (approx.map(_._2), exact.map(_._2), merge)
        }
        (rows.map(_._1), rows.map(_._2), rows.map(_._3).toSeq)
      }
      pass()
      val (a, s, merge) = pass()
      TreeReplay(trees, a, s, median(merge))
    }
  }

  private def timedMs[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime(); val r = body; (r, (System.nanoTime() - t0) / 1e6)
  }

  /** Mean per query of stored words and leaves whose lower bound falls below
    * the final k-th distance squared: the work no exact search can skip.
    */
  private def survivors(trees: Array[TreeIndex], space: QuantizedWordSpace,
                        qz: Array[Array[Float]], kthSq: Array[Double]): (Double, Double) = {
    var words = 0L; var leaves = 0L
    qz.indices.foreach { q =>
      val qp = space.project(qz(q))
      trees.foreach { t =>
        t.allLeaves.foreach { leaf =>
          if (space.nodeLbSq(qp, leaf.prefix, leaf.bits) < kthSq(q)) leaves += 1
          leaf.entries.foreach { e =>
            if (space.wordLbSq(qp, t.wordOf(e), Double.PositiveInfinity) < kthSq(q)) words += 1
          }
        }
      }
    }
    (words.toDouble / qz.length, leaves.toDouble / qz.length)
  }

  /** `TreeIndex.build` over one partition's series, median of three, in ms. */
  private def localBuildMs(run: Run, t: TreeIndex, space: QuantizedWordSpace): Double = {
    val rows = (0 until t.size).map { e => val id = t.idOf(e); (id, SeriesGen.series(run.spec.profile, run.spec.seed, id)) }
    median((0 until 3).map(_ => timedMs(TreeIndex.build(space, run.cfg.leafCapacity, rows.iterator))._2))
  }

  /** Per-partition top-k of an early-abandoning scan, as `UcrScan` tasks compute it. */
  private def scanParts(store: Array[(Array[Long], Array[Array[Float]])], qz: Array[Float],
                        k: Int): Array[Array[(Long, Double)]] =
    store.map { case (ids, zs) =>
      val heap = new java.util.PriorityQueue[(Double, Long)](k,
        (a: (Double, Long), b: (Double, Long)) => java.lang.Double.compare(b._1, a._1))
      var bsf = Double.PositiveInfinity
      var i = 0
      while (i < zs.length) {
        val d = Series.edSqEarlyAbandon(qz, zs(i), bsf)
        if (d < bsf) {
          if (heap.size == k) heap.poll()
          heap.add((d, ids(i)))
          if (heap.size == k) bsf = heap.peek()._1
        }
        i += 1
      }
      Array.fill(heap.size)(heap.poll()).reverse.map { case (d, id) => (id, math.sqrt(d)) }
    }

  private def scanMergeMs(store: Array[(Array[Long], Array[Array[Float]])],
                          qz: Array[Array[Float]], k: Int): Double = {
    val parts = qz.map(z => scanParts(store, z, k).toSeq)
    median(replayTwice(parts.toSeq.map(p => () => Built.mergeTopK(p, k))))
  }

  /** Nanoseconds per call of each `repro.core` kernel on workload data:
    * median of five passes over 512 stored series (and the replay queries).
    */
  private def core(run: Run, qz: Array[Array[Float]], kthSq: Array[Double]): Seq[(String, Double)] = {
    val n = math.min(512, run.localZ.length)
    val z = run.localZ.take(n)
    val raw = (0 until n).map(i => SeriesGen.series(run.spec.profile, run.spec.seed, i)).toArray
    var sink = 0.0
    def nsPerCall(calls: Int)(pass: => Unit): Double =
      median((0 until 5).map { _ =>
        val t0 = System.nanoTime(); pass; (System.nanoTime() - t0).toDouble / calls
      })
    val out = ArrayBuffer.empty[(String, Double)]
    out += "core.znorm_ns" -> nsPerCall(n)(raw.foreach(r => sink += Series.znorm(r)(0)))
    out += "core.ed_ns" -> nsPerCall(n * qz.length)(qz.foreach(q => z.foreach(x => sink += Series.edSq(q, x))))
    out += "core.ed_ea_ns" -> nsPerCall(n * qz.length)(qz.indices.foreach { i =>
      z.foreach(x => sink += Series.edSqEarlyAbandon(qz(i), x, kthSq(i)))
    })
    Trees.foreach { key =>
      val idx = run.slot(key).built.asInstanceOf[DistributedIndex]
      val sp = idx.space
      val proj = z.map(sp.project)
      val words = proj.map(sp.quantize)
      val qp = qz.map(sp.project)
      val leaves = idx.trees.first().allLeaves.map(l => (l.prefix, l.bits)).toArray
      out += s"$key.project_ns" -> nsPerCall(n)(z.foreach(x => sink += sp.project(x)(0)))
      out += s"$key.quantize_ns" -> nsPerCall(n)(proj.foreach(p => sink += sp.quantize(p)(0)))
      out += s"$key.word_lb_ns" -> nsPerCall(n * qp.length)(qp.foreach { q =>
        words.foreach(w => sink += sp.wordLbSq(q, w, Double.PositiveInfinity))
      })
      out += s"$key.node_lb_ns" -> nsPerCall(leaves.length * qp.length)(qp.foreach { q =>
        leaves.foreach { case (p, b) => sink += sp.nodeLbSq(q, p, b) }
      })
    }
    if (sink == 42.0) println("") // keeps the kernels' results live
    out.toSeq
  }
}
