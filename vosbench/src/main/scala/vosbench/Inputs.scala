package vosbench

import repro.core.{VOSHashes, VOSSketch}
import repro.stream.{DatasetSpec, DynamicStreamGen, EdgeEvent, GraphGen}

/** One workload's generated input: the fully dynamic stream, flattened
  * into primitive columns for the replay loops, plus the VOS configuration.
  */
final class Stream(
    val spec: DatasetSpec,
    val events: Array[EdgeEvent],
    val hashes: VOSHashes,
) {
  val n: Int = events.length
  val users: Array[Long]      = events.map(_.user)
  val items: Array[Long]      = events.map(_.item)
  val inserts: Array[Boolean] = events.map(_.insert)
}

/** Input generation. Every random choice derives from the run's `--seed`:
  * the graph seed and the stream-schedule seed are two SplitMix64 outputs
  * of it, so one seed always gives one input.
  */
object Inputs {

  /** Baseline register count; VOS gets the paper's equal memory. */
  val KBaseline = 100

  /** Paper-scale Zipf–Zipf graph: 300k users, 3M base edges. */
  def paperScale(seed: Long): DatasetSpec =
    DatasetSpec("paper-scale", 300000, 100000, 3000000, 0.70, 1.10, graphSeed(seed))

  /** The youtube-lite analog of the repo, re-seeded. */
  def youtubeLite(seed: Long): DatasetSpec =
    DatasetSpec.youtube.copy(seed = graphSeed(seed))

  /** The `n` users with the largest final item sets (ties by id). A
    * feasible stream's final set size is inserts minus deletes.
    */
  def largestUsers(s: Stream, n: Int): Array[Long] = {
    val size = new Array[Long](s.spec.numUsers)
    var e = 0
    while (e < s.n) { size(s.users(e).toInt) += (if (s.inserts(e)) 1 else -1); e += 1 }
    size.indices.sortBy(u => (-size(u), u)).take(n).map(_.toLong).toArray
  }

  def graphSeed(seed: Long): Long  = repro.core.Hashing.mix64(seed * 2 + 1)
  def streamSeed(seed: Long): Long = repro.core.Hashing.mix64(seed * 2 + 2)

  /** Generate the graph and its stream (d = r = 0.5), timing both phases. */
  def generate(spec: DatasetSpec, seed: Long, trace: Trace): Stream = {
    val edges = trace.span("gen.graph")(GraphGen.baseEdges(spec))
    trace.count("gen.graph", edges.length.toLong)
    val events = trace.span("gen.stream") {
      DynamicStreamGen.generate(edges, d = 0.5, r = 0.5, seed = streamSeed(seed)).toArray
    }
    trace.count("gen.stream", events.length.toLong)
    new Stream(spec, events, VOSSketch.paperConfig(KBaseline, spec.numUsers))
  }
}
