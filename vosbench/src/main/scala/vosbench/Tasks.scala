package vosbench

import repro.core.{SimilaritySketch, VOSEstimate, VOSSketch}

/** One timed activity of a workload, advanced by [[Tasks.cycle]] one step
  * (about one sample) at a time. Running the activities of a workload in
  * turn spreads every metric's samples over the whole run, so a slow minute
  * of a shared machine weighs on all of them alike.
  */
abstract class Task {
  def step(): Unit

  /** The least work the run must finish, whatever the time. */
  def done: Boolean
}

object Tasks {

  /** Step every task in turn, in whole cycles, until `budgetSeconds` have
    * passed and every task is done. A traced run keeps its second cycle
    * untraced (the first carries start-up costs) and reports the tracing
    * overhead as the median of the later, traced cycles minus that one.
    * Returns the number of cycles.
    */
  def cycle(ctx: Ctx, budgetSeconds: Double, tasks: Seq[Task]): Int = {
    val start  = System.nanoTime()
    var cycles = Vector.empty[Double]
    while (cycles.length < (if (ctx.traced) 3 else 1) ||
           System.nanoTime() - start < budgetSeconds * 1e9 || !tasks.forall(_.done)) {
      ctx.trace.paused = ctx.traced && cycles.length == 1
      val t0 = System.nanoTime()
      ctx.trace.span("cycle")(tasks.foreach(_.step()))
      cycles :+= (System.nanoTime() - t0).toDouble
      ctx.trace.paused = false
    }
    if (ctx.traced)
      ctx.report.metric("trace.overhead_s", (Layers.median(cycles.drop(2)) - cycles(1)) / 1e9, "s")
    cycles.length
  }
}

/** Full passes of the stream through `VOSSketch.update`, each on a fresh
  * sketch. With `whole`, a step is one pass, sampled every
  * [[Layers.SampleNs]]; otherwise a step is as many passes as fill one
  * sample (for streams whose pass is shorter than a sample).
  */
final class Passes(s: Stream, tr: Trace, minPasses: Int, whole: Boolean) extends Task {
  val samples = new Layers.Samples
  var passNs  = Vector.empty[Double]

  /** The last finished sketch of the whole stream. */
  var latest: VOSSketch = _

  def done: Boolean = passNs.length >= minPasses

  def step(): Unit =
    if (whole) {
      val t0 = System.nanoTime()
      val sk = new VOSSketch(s.hashes)
      tr.span("vos.pass") {
        Layers.sliced(0, s.n, Layers.IngestStride, samples)((i, j) => Layers.ingest(s, sk, i, j))
      }
      passNs :+= (System.nanoTime() - t0).toDouble
      latest = sk
    } else {
      val t0     = System.nanoTime()
      var passes = 0
      while (passes == 0 || System.nanoTime() - t0 < Layers.SampleNs) {
        val p0 = System.nanoTime()
        latest = tr.span("vos.pass")(Layers.build(s))
        passNs :+= (System.nanoTime() - p0).toDouble
        passes += 1
      }
      samples.add(passes.toLong * s.n, System.nanoTime() - t0)
    }

  def attempted: Long = passNs.length.toLong * s.n
}

/** Pair estimates, cycling through `pairs` on the sketch `sketch()`; a
  * step is `samplesPerStep` samples (more where a cycle is short on query
  * time). The estimates of the last full pass over the pairs are kept,
  * with the sketch they came from, for the checks.
  */
final class Queries(sketch: () => VOSSketch, pairs: Array[(Long, Long)], tr: Trace, samplesPerStep: Int = 1)
    extends Task {
  val samples = new Layers.Samples
  private val est  = new Array[VOSEstimate](pairs.length)
  private var next = 0
  var fullPasses   = 0
  var lastEstimates: Array[VOSEstimate] = _
  var lastSketch: VOSSketch = _

  def done: Boolean = fullPasses >= 1

  def step(): Unit = for (_ <- 1 to samplesPerStep) sample()

  private def sample(): Unit = tr.span("vos.queries") {
    val sk = sketch()
    val t0 = System.nanoTime()
    var n  = 0L
    while (n == 0 || System.nanoTime() - t0 < Layers.SampleNs) {
      est(next) = sk.estimate(pairs(next)._1, pairs(next)._2)
      next += 1
      n += 1
      if (next == pairs.length) {
        next = 0
        fullPasses += 1
        lastEstimates = est.clone()
        lastSketch = sk
      }
    }
    samples.add(n, System.nanoTime() - t0)
  }
}

/** MinHash, OPH and RP, each replaying events `[0, upTo)`; a step
  * advances each by one sample. When one finishes, `finished` gets it
  * (outside the timing) and a fresh one starts over.
  */
final class Baselines(s: Stream, upTo: Int, tr: Trace)(finished: SimilaritySketch => Unit) extends Task {
  private final class Replay(val make: () => SimilaritySketch) {
    var sketch: SimilaritySketch = make()
    var pos       = 0
    var completed = 0
    val samples   = new Layers.Samples
    val span      = sketch.name.toLowerCase + ".update"
  }
  private val replays = Layers.baselines().map(new Replay(_))
  var attempted       = 0L

  def done: Boolean = replays.forall(_.completed >= 1)

  def step(): Unit = replays.foreach { r =>
    val t0   = System.nanoTime()
    val from = r.pos
    tr.span(r.span) {
      while (r.pos < upTo && (r.pos == from || System.nanoTime() - t0 < Layers.SampleNs)) {
        val until = math.min(upTo, r.pos + Layers.IngestStride)
        var e = r.pos
        while (e < until) { r.sketch.update(s.events(e)); e += 1 }
        r.pos = until
      }
    }
    val ns = System.nanoTime() - t0
    if (ns >= Layers.SampleNs / 2) r.samples.add(r.pos - from, ns) else r.samples.extendLast(r.pos - from, ns)
    tr.count(r.span, (r.pos - from).toLong)
    attempted += r.pos - from
    if (r.pos == upTo) {
      finished(r.sketch)
      r.completed += 1
      r.sketch = r.make()
      r.pos = 0
    }
  }

  /** The three back to back, from each one's median ns per event. */
  def eventsPerSecond: Double = 3e9 / replays.map(_.samples.medianNsPerUnit).sum
}
