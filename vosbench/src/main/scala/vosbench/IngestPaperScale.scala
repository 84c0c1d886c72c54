package vosbench

/** `ingest-paper-scale`: a 300k-user Zipf–Zipf graph (≈5.2M events) into
  * a sketch at the paper's memory parity m = 32·k·|U| (960M bits at
  * k = 100). In turn: full passes over the stream, each on a fresh sketch;
  * estimates of every pair among the 90 largest users on the last full
  * sketch; and the baselines over a prefix. The bit array and counters are
  * far larger than the caches.
  */
object IngestPaperScale extends Workload {
  val name = "ingest-paper-scale"

  /** Users whose pairs form the query sample (90 users, 4,005 pairs). */
  val SampleUsers = 90

  /** The baselines replay this prefix: their full replay takes ~25 s. */
  val BaselinePrefix = 500000

  def run(ctx: Ctx): Unit = {
    import ctx._
    val s     = Inputs.generate(Inputs.paperScale(seed), seed, trace)
    val pairs = Exact.allPairs(Inputs.largestUsers(s, SampleUsers))
    trace.span("warmup") {
      Layers.sink += Layers.build(s).array.onesCount
      Layers.warmUp(s, pairs)
    }
    setupDone()

    val prefix    = new Exact(s, BaselinePrefix)
    val passes    = new Passes(s, trace, minPasses = 2, whole = true)
    val queries   = new Queries(() => passes.latest, pairs, trace)
    val baselines = new Baselines(s, BaselinePrefix, trace)(b =>
      report.check(s"counters.${b.name}", Checks.counters(b.cardinality, prefix.sizes)))
    Tasks.cycle(ctx, seconds, Seq(passes, queries, baselines))
    report.attempted += passes.attempted + queries.samples.units + baselines.attempted
    report.metric("ingest_eps", passes.samples.medianRate, "events/s")
    report.metric("replay_s", Layers.median(passes.passNs) / 1e9, "s")
    report.metric("query_pps", queries.samples.medianRate, "pairs/s")
    report.metric("baseline_ingest_eps", baselines.eventsPerSecond, "events/s")

    val exact = new Exact(s, s.n)
    Layers.sketchChecks(ctx, passes.latest, exact, pairs, queries)
    if (traced) {
      Layers.queryProbes(passes.latest, pairs, trace, report)
      Layers.genMetrics(trace, report)
      Layers.baselineMetrics(trace, report)
    }
    val holder = Array[AnyRef](passes.latest)
    passes.latest = null
    queries.lastSketch = null
    Layers.heapMetrics(holder, s.hashes.m, exact.sizes.count(_ > 0).toLong, report)
    if (traced) Layers.ingestProbes(s, trace, report)
  }
}
