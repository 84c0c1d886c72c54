package vosbench

import repro.core.{VOSEstimate, VOSSketch}

/** `tracked-pairs`: the youtube-lite stream (k_vos = 6,400, m = 12.8M
  * bits) replayed through VOS. At each of 10 evenly spaced checkpoints
  * every pair among the 150 largest users (11,175 pairs) is estimated, so
  * queries are interleaved with writes. In turn with the checkpoints: full
  * ingest passes, and the three baselines at k = 100 replaying the stream.
  */
object TrackedPairs extends Workload {
  val name = "tracked-pairs"

  val TrackedUsers = 150
  val Checkpoints  = 10

  /** Event index at which checkpoint `c` (1-based) is taken. */
  def checkpointAt(n: Int, c: Int): Int = (n.toLong * c / Checkpoints).toInt

  /** The interleaved replay; a step is one checkpoint interval: its
    * segment of writes, then every pair's estimate (sampled). The
    * estimates are checked at every checkpoint, outside the timing.
    */
  final class Replay(s: Stream, pairs: Array[(Long, Long)], tr: Trace, report: Report) extends Task {
    val queries   = new Layers.Samples
    var intervals = Vector.empty[Double]
    var rounds    = 0
    var finalSketch: VOSSketch = _
    var finalEstimates: Array[VOSEstimate] = _
    private var sk: VOSSketch = _
    private var c   = 0
    private val est = new Array[VOSEstimate](pairs.length)

    def done: Boolean = rounds >= 1

    def step(): Unit = {
      if (c == 0) sk = new VOSSketch(s.hashes)
      c += 1
      val t0 = System.nanoTime()
      tr.span("vos.ingest_segment")(Layers.ingest(s, sk, checkpointAt(s.n, c - 1), checkpointAt(s.n, c)))
      tr.span("vos.checkpoint_queries")(Layers.estimateSliced(sk, pairs, est, queries))
      intervals :+= (System.nanoTime() - t0).toDouble
      report.check(s"alpha_two_paths.c$c", Checks.alphaTwoPaths(sk, pairs, est.map(_.alpha)))
      report.check(s"estimate_ranges.c$c", Checks.ranges(sk, pairs, est))
      if (c == Checkpoints) {
        finalSketch = sk
        finalEstimates = est.clone()
        sk = null
        rounds += 1
        c = 0
      }
    }

    def attempted: Long = intervals.length.toLong * (s.n / Checkpoints + pairs.length)
  }

  def run(ctx: Ctx): Unit = {
    import ctx._
    val s     = Inputs.generate(Inputs.youtubeLite(seed), seed, trace)
    val pairs = Exact.allPairs(Inputs.largestUsers(s, TrackedUsers))
    trace.span("warmup")(Layers.warmUp(s, pairs))
    setupDone()

    val exact     = new Exact(s, s.n)
    val truth     = exact.intersections(pairs)
    var baseAapes = Map.empty[String, Double]
    val replay    = new Replay(s, pairs, trace, report)
    val passes    = new Passes(s, trace, minPasses = 1, whole = false)
    val baselines = new Baselines(s, s.n, trace)({ b =>
      report.check(s"counters.${b.name}", Checks.counters(b.cardinality, exact.sizes))
      baseAapes += b.name -> Checks.aape(truth, pairs.map { case (u, v) => b.estimatePair(u, v)._1 })
    })
    Tasks.cycle(ctx, seconds, Seq(replay, passes, baselines))
    report.attempted += replay.attempted + passes.attempted + baselines.attempted
    report.metric("replay_s", Checkpoints * Layers.median(replay.intervals) / 1e9, "s")
    report.metric("query_pps", replay.queries.medianRate, "pairs/s")
    report.metric("ingest_eps", passes.samples.medianRate, "events/s")
    report.metric("baseline_ingest_eps", baselines.eventsPerSecond, "events/s")

    checks(ctx, replay, exact, truth, baseAapes.toSeq)
    if (traced) {
      Layers.queryProbes(replay.finalSketch, pairs, trace, report)
      Layers.genMetrics(trace, report)
      Layers.baselineMetrics(trace, report)
    }
    val holder = Array[AnyRef](replay.finalSketch)
    replay.finalSketch = null
    passes.latest = null
    Layers.heapMetrics(holder, s.hashes.m, exact.sizes.count(_ > 0).toLong, report)
    if (traced) Layers.ingestProbes(s, trace, report)
  }

  private def checks(ctx: Ctx, replay: Replay, exact: Exact, truth: Array[Double],
                     baseAapes: Seq[(String, Double)]): Unit = {
    val sketch = replay.finalSketch
    ctx.report.check("counters.VOS", Checks.counters(sketch.cardinality, exact.sizes))
    ctx.report.check("deletions_cancel", Checks.deletionsCancel(sketch, exact.edges))
    val vosAape = Checks.aape(truth, replay.finalEstimates.map(_.s))
    Console.err.println(s"[vosbench] final AAPE: VOS $vosAape, " +
      baseAapes.map { case (n, a) => s"$n $a" }.mkString(", "))
    ctx.report.check("paper_claim", Checks.paperClaim(vosAape, baseAapes))
  }
}
