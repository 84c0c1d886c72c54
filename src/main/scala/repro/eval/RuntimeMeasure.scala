package repro.eval

import scala.collection.mutable.ArrayBuffer
import repro.core.SimilaritySketch
import repro.stream.EdgeEvent

/** Per-edge update-time measurement behind the paper's Figure 2 (tables
  * T1/T2 in DESIGN.md § 6).
  *
  * The paper measures "the runtime during which we implement all four
  * methods respectively to update the sketch for each user". We report the
  * median ns/edge over a few time-bounded samples, after a discarded
  * warm-up sample long enough for the JIT. A sample is made of whole
  * strides of `update` calls; the warm-up doubles the stride from 1 edge
  * until one stride takes about a millisecond, so every method and k is
  * timed alike. When the stream runs out, timing goes on over it with a
  * fresh sketch, made outside any timed interval.
  */
object RuntimeMeasure {

  /** One runtime row: median ns/edge, and the edges timed in all samples. */
  final case class RuntimeRow(method: String, k: Int, nsPerEdge: Double, edges: Long)

  private val StrideNs    = 1000000L
  private val WarmupNs    = 50 * StrideNs
  private val SampleNs    = 20 * StrideNs
  private val SampleCount = 5

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) 0.0
    else if (s.length % 2 == 1) s(s.length / 2)
    else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Timed samples of one operation, each (units of work, ns). */
  final class Samples {
    private val buf = ArrayBuffer.empty[(Long, Long)]
    def add(units: Long, ns: Long): Unit = buf += ((units, ns))
    def count: Int = buf.length
    def units: Long = buf.iterator.map(_._1).sum
    def medianNsPerUnit: Double = median(buf.map { case (u, ns) => ns.toDouble / u }.toSeq)
  }

  /** Median ns/edge of `update` on sketches from `fresh`, fed `events`. */
  def measure(k: Int, fresh: () => SimilaritySketch, events: IndexedSeq[EdgeEvent]): RuntimeRow = {
    require(events.nonEmpty, "no events to time")
    var sketch = fresh()
    var next   = 0
    // Ns spent in `update` over the next `n` edges.
    def stride(n: Int): Long = {
      var ns   = 0L
      var left = n
      while (left > 0) {
        if (next == events.length) { sketch = fresh(); next = 0 }
        val until = math.min(events.length, next + left)
        var i     = next
        val t0    = System.nanoTime()
        while (i < until) { sketch.update(events(i)); i += 1 }
        ns += System.nanoTime() - t0
        left -= until - next
        next = until
      }
      ns
    }

    var n    = 1
    var warm = 0L
    while (warm < WarmupNs) {
      val ns = stride(n)
      if (ns < StrideNs) n *= 2
      warm += ns
    }
    val samples = new Samples
    while (samples.count < SampleCount) {
      var edges = 0L
      var ns    = 0L
      while (ns < SampleNs) { ns += stride(n); edges += n }
      samples.add(edges, ns)
    }
    RuntimeRow(sketch.name, k, samples.medianNsPerUnit, samples.units)
  }
}
