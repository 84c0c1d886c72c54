package vosbench

import repro.baselines.{MinHashDyn, OPHDyn, RandomPairing}
import repro.core.{BitArray, SimilaritySketch, VOSEstimate, VOSEstimator, VOSSketch}

/** Calls into the program's layers, shared by the workloads: the timed
  * jobs, and the traced run's probes that time one layer at a time.
  */
object Layers {

  /** Keeps results alive so the JIT cannot drop the work that made them. */
  @volatile var sink: Long = 0L

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Shortest timed sample. Rates are medians over samples at least this
    * long, so one slow moment of the machine moves one sample, not the
    * figure.
    */
  val SampleNs: Long = 200000000L

  /** Timed samples of one operation, each (units of work, ns). */
  final class Samples {
    private val buf = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
    def add(units: Long, ns: Long): Unit = buf += ((units, ns))
    /** Merge into the last sample (a tail shorter than [[SampleNs]]). */
    def extendLast(units: Long, ns: Long): Unit =
      if (buf.isEmpty) add(units, ns) else buf(buf.length - 1) = (buf.last._1 + units, buf.last._2 + ns)
    def count: Int = buf.length
    def units: Long = buf.iterator.map(_._1).sum
    /** Median of the samples' ns per unit. */
    def medianNsPerUnit: Double = median(buf.map { case (u, ns) => ns.toDouble / u }.toSeq)
    /** Median of the samples' units per second. */
    def medianRate: Double = 1e9 / medianNsPerUnit
  }

  /** Run `block(i, j)` over `[from, until)` in strides of `stride`,
    * cutting the time into samples of at least [[SampleNs]].
    */
  def sliced(from: Int, until: Int, stride: Int, samples: Samples)(block: (Int, Int) => Unit): Unit = {
    var i     = from
    var start = from
    var t0    = System.nanoTime()
    while (i < until) {
      val j = math.min(until, i + stride)
      block(i, j)
      i = j
      val now = System.nanoTime()
      if (now - t0 >= SampleNs) { samples.add(i - start, now - t0); start = i; t0 = now }
    }
    if (i > start) samples.extendLast(i - start, System.nanoTime() - t0)
  }

  /** Feed events `[from, until)` through `VOSSketch.update`. */
  def ingest(s: Stream, sketch: VOSSketch, from: Int, until: Int): Unit = {
    val (us, is, ins) = (s.users, s.items, s.inserts)
    var e = from
    while (e < until) { sketch.update(us(e), is(e), ins(e)); e += 1 }
  }

  /** Events between two time checks of [[sliced]] ingest loops. */
  val IngestStride = 4096

  /** A fresh sketch of the whole stream. */
  def build(s: Stream): VOSSketch = {
    val sk = new VOSSketch(s.hashes)
    ingest(s, sk, 0, s.n)
    sk
  }

  def estimateAll(sketch: VOSSketch, pairs: Array[(Long, Long)]): Array[VOSEstimate] =
    pairs.map { case (u, v) => sketch.estimate(u, v) }

  /** Estimate every pair into `est`, timed into `samples`. */
  def estimateSliced(sketch: VOSSketch, pairs: Array[(Long, Long)], est: Array[VOSEstimate],
                     samples: Samples): Unit =
    sliced(0, pairs.length, 1, samples) { (i, j) =>
      var p = i
      while (p < j) { est(p) = sketch.estimate(pairs(p)._1, pairs(p)._2); p += 1 }
    }

  /** JIT warm-up of the sequential paths timed later: updates, pair
    * estimates and the three baselines, on a prefix of the stream.
    */
  def warmUp(s: Stream, pairs: Array[(Long, Long)]): Unit = {
    val upTo = math.min(s.n, 100000)
    val sk   = new VOSSketch(s.hashes)
    ingest(s, sk, 0, upTo)
    sink += estimateAll(sk, pairs.take(2000)).length
    baselines().foreach { make =>
      val b = make()
      var e = 0
      while (e < math.min(upTo, 30000)) { b.update(s.events(e)); e += 1 }
      sink += b.cardinality(0L)
    }
  }

  /** The checks on one full-stream sketch and the queries made on it:
    * counters, deletions cancel, two paths to α and estimate ranges.
    */
  def sketchChecks(ctx: Ctx, sketch: VOSSketch, exact: Exact, pairs: Array[(Long, Long)], queries: Queries): Unit = {
    ctx.report.check("counters.VOS", Checks.counters(sketch.cardinality, exact.sizes))
    ctx.report.check("deletions_cancel", Checks.deletionsCancel(sketch, exact.edges))
    ctx.report.check("alpha_two_paths",
      Checks.alphaTwoPaths(queries.lastSketch, pairs, queries.lastEstimates.map(_.alpha)))
    ctx.report.check("estimate_ranges", Checks.ranges(queries.lastSketch, pairs, queries.lastEstimates))
  }

  /** The baselines, at the paper's k, in the order they are replayed. */
  def baselines(): Seq[() => SimilaritySketch] = Seq(
    () => new MinHashDyn(Inputs.KBaseline),
    () => new OPHDyn(Inputs.KBaseline),
    () => new RandomPairing(Inputs.KBaseline),
  )

  /** Traced probes of the ingest layers, each over the whole stream:
    * positions alone, flips of precomputed positions, and full updates.
    */
  def ingestProbes(s: Stream, tr: Trace, report: Report): Unit = {
    val pos = new Array[Int](s.n)
    tr.span("hashing.position") {
      var e = 0
      while (e < s.n) { pos(e) = s.hashes.position(s.users(e), s.items(e)); e += 1 }
    }
    tr.count("hashing.position", s.n.toLong)
    val bits = new BitArray(s.hashes.m)
    tr.span("bitarray.flip") {
      var e = 0
      while (e < s.n) { bits.flip(pos(e)); e += 1 }
    }
    tr.count("bitarray.flip", s.n.toLong)
    sink += bits.onesCount

    val sk = new VOSSketch(s.hashes)
    val (a0, g0, t0) = (Heap.allocatedBytes(), Heap.gcMillis(), System.nanoTime())
    tr.span("vos.update")(ingest(s, sk, 0, s.n))
    val (a1, g1, t1) = (Heap.allocatedBytes(), Heap.gcMillis(), System.nanoTime())
    tr.count("vos.update", s.n.toLong)
    sink += sk.array.onesCount

    val update = tr.perCallNs("vos.update")
    report.metric("hashing.position_ns", tr.perCallNs("hashing.position"), "ns")
    report.metric("bitarray.flip_ns", tr.perCallNs("bitarray.flip"), "ns")
    report.metric("vos.update_ns", update, "ns")
    report.metric("vos.counter_ns",
      update - tr.perCallNs("hashing.position") - tr.perCallNs("bitarray.flip"), "ns")
    report.metric("jvm.alloc_bytes_per_event", (a1 - a0).toDouble / s.n, "bytes")
    report.metric("jvm.gc_ms", (g1 - g0).toDouble, "ms")
    report.metric("vos.sequential_build_ms", (t1 - t0) / 1e6, "ms")
  }

  /** Traced probes of the query layers over `pairs` of a built sketch. */
  def queryProbes(sketch: VOSSketch, pairs: Array[(Long, Long)], tr: Trace, report: Report): Unit = {
    val users = pairs.flatMap(p => Array(p._1, p._2)).distinct
    val h     = sketch.hashes
    val fpos  = new Array[Int](users.length * h.k)
    tr.span("hashing.f") {
      var i = 0
      while (i < users.length) {
        var j = 0
        while (j < h.k) { fpos(i * h.k + j) = h.f(j, users(i)); j += 1 }
        i += 1
      }
    }
    tr.count("hashing.f", fpos.length.toLong)
    tr.span("bitarray.get") {
      var ones = 0L
      var p    = 0
      while (p < fpos.length) { ones += sketch.array.get(fpos(p)); p += 1 }
      sink += ones
    }
    tr.count("bitarray.get", fpos.length.toLong)
    val odd = tr.span("vos.rebuild")(users.map(u => u -> sketch.rebuildOddSketch(u)).toMap)
    tr.count("vos.rebuild", users.length.toLong)
    tr.span("bitarray.hamming")(pairs.foreach { case (u, v) => sink += odd(u).hammingDistance(odd(v)) })
    tr.count("bitarray.hamming", pairs.length.toLong)
    val alphas = tr.span("vos.alpha")(pairs.map { case (u, v) => sketch.alpha(u, v) })
    tr.count("vos.alpha", pairs.length.toLong)
    val (beta, nu, nv) = (sketch.beta, pairs.map(p => sketch.cardinality(p._1)), pairs.map(p => sketch.cardinality(p._2)))
    val Repeats = 20
    tr.span("estimator.estimate") {
      var r = 0
      while (r < Repeats) {
        var p = 0
        while (p < pairs.length) {
          sink += VOSEstimator.estimate(h.k, alphas(p), beta, nu(p), nv(p)).s.toLong
          p += 1
        }
        r += 1
      }
    }
    tr.count("estimator.estimate", Repeats.toLong * pairs.length)

    report.metric("hashing.f_ns", tr.perCallNs("hashing.f"), "ns")
    report.metric("bitarray.get_ns", tr.perCallNs("bitarray.get"), "ns")
    report.metric("vos.rebuild_us", tr.perCallNs("vos.rebuild") / 1e3, "us")
    report.metric("bitarray.hamming_ns", tr.perCallNs("bitarray.hamming"), "ns")
    report.metric("vos.alpha_us", tr.perCallNs("vos.alpha") / 1e3, "us")
    report.metric("estimator.estimate_ns", tr.perCallNs("estimator.estimate"), "ns")
  }

  /** Per-layer figures of the baseline replays recorded in `tr`. */
  def baselineMetrics(tr: Trace, report: Report): Unit =
    Seq("minhash", "oph", "rp").foreach { b =>
      report.metric(s"$b.update_ns", tr.perCallNs(s"$b.update"), "ns")
    }

  /** Per-layer figures of input generation recorded in `tr`. */
  def genMetrics(tr: Trace, report: Report): Unit = {
    report.metric("gen.graph_s", tr.totalNs("gen.graph") / 1e9, "s")
    report.metric("gen.stream_s", tr.totalNs("gen.stream") / 1e9, "s")
  }

  /** Heap of one built sketch, and of its counters per user. The caller
    * hands over its only reference in `holder(0)`.
    */
  def heapMetrics(holder: Array[AnyRef], m: Int, users: Long, report: Report): Unit = {
    val bytes      = Heap.retained(holder)
    val arrayBytes = 16L + 8L * ((m.toLong + 63) / 64)
    report.metric("sketch_heap_bytes", bytes.toDouble, "bytes")
    report.metric("vos.counter_bytes_per_user", (bytes - arrayBytes).toDouble / math.max(1L, users), "bytes")
  }
}
