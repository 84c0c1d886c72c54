package repro.stream

import repro.baselines.ExactSim

/** Fully dynamic graph stream generator.
  *
  * Converts a static base edge set into a feasible stream of subscriptions
  * and unsubscriptions (DESIGN.md § 5 documents how this substitutes for
  * the Trièst-style q/d model at repro scale):
  *
  *   - every base edge is inserted exactly once;
  *   - with probability `d` (paper: d = 0.5) a matching deletion is
  *     scheduled after the insertion;
  *   - a deleted edge is re-inserted with probability `r` (= 0.5),
  *     modeling re-subscription.
  *
  * Each edge's 1–3 actions get i.i.d. uniform virtual timestamps sorted
  * ascending within the edge, and the whole stream is ordered by
  * timestamp: deletions are interleaved uniformly through the stream and
  * feasibility (insert before delete before re-insert, no duplicates)
  * holds by construction. Expected stream length is `(1 + d + d·r)·|E|`
  * and the expected deletion fraction `d/(1 + d + d·r)` (≈ 28.6% at
  * d = r = 0.5).
  */
object DynamicStreamGen {

  /** Generate the event stream for `edges`.
    *
    * @param edges distinct base (user, item) pairs
    * @param d     probability an inserted edge is later deleted
    * @param r     probability a deleted edge is re-inserted
    * @param seed  scheduling seed
    */
  def generate(
      edges: Edges,
      d: Double = 0.5,
      r: Double = 0.5,
      seed: Long = 1234L,
  ): IndexedSeq[EdgeEvent] =
    generateInChunks(edges, d, r, seed, chunkCount(edges.length))

  /** [[generate]], sorting and building the events in `chunks` pieces;
    * every chunk count gives the same stream.
    */
  private[stream] def generateInChunks(edges: Edges, d: Double, r: Double, seed: Long, chunks: Int): IndexedSeq[EdgeEvent] = {
    require(d >= 0 && d <= 1, s"d out of [0,1]: $d")
    require(r >= 0 && r <= 1, s"r out of [0,1]: $r")
    require(edges.length <= Int.MaxValue / 3, s"too many edges: ${edges.length}")
    val rng = new java.util.SplittableRandom(seed)

    // Per action, in generation order: its virtual timestamp's bits (a
    // non-negative double's bits order like the double) and its edge index
    // times 2, plus 1 for a deletion (actions alternate ins, del, ins).
    val stamps  = new Array[Long](3 * edges.length)
    val actions = new Array[Int](stamps.length)
    var n = 0
    var e = 0
    while (e < edges.length) {
      val nActs =
        if (rng.nextDouble() >= d) 1
        else if (rng.nextDouble() >= r) 2
        else 3
      // Sort the 1–3 timestamps by their bits, with no branch; an absent
      // one reads 1.0 and stays last. All three slots are written, and
      // those past `nActs` are the next edge's to overwrite.
      val t0 = java.lang.Double.doubleToRawLongBits(rng.nextDouble())
      val t1 = java.lang.Double.doubleToRawLongBits(if (nActs > 1) rng.nextDouble() else 1.0)
      val t2 = java.lang.Double.doubleToRawLongBits(if (nActs > 2) rng.nextDouble() else 1.0)
      val lo = math.min(t0, t1)
      val hi = math.max(t0, t1)
      stamps(n) = math.min(lo, t2)
      stamps(n + 1) = math.max(lo, math.min(hi, t2))
      stamps(n + 2) = math.max(hi, t2)
      actions(n) = 2 * e
      actions(n + 1) = 2 * e + 1
      actions(n + 2) = 2 * e
      n += nActs
      e += 1
    }

    val order  = sortStable(stamps, actions, n, chunks)
    val events = new Array[EdgeEvent](n)
    forChunks(chunks) { c =>
      var t = (n.toLong * c / chunks).toInt
      val end = (n.toLong * (c + 1) / chunks).toInt
      while (t < end) {
        val a = order(t)
        events(t) = EdgeEvent(edges.users(a >>> 1).toLong, edges.items(a >>> 1).toLong, (a & 1) == 0, t + 1L)
        t += 1
      }
    }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(events)
  }

  /** Buckets of the timestamp sort: a key `t` goes to bucket `⌊t·2¹⁶⌋`. */
  private val Buckets = 1 << 16

  /** Fewest elements worth a chunk of their own. */
  private val MinChunk = 1 << 18

  /** Chunks for `n` elements: one per `MinChunk`, at most one per CPU and
    * at most 8.
    */
  private def chunkCount(n: Int): Int =
    math.max(1, math.min(math.min(8, Runtime.getRuntime.availableProcessors), n / MinChunk))

  /** Runs `body` on every chunk index below `chunks`: on the calling
    * thread when there is one, else in parallel on the common pool.
    */
  private def forChunks(chunks: Int)(body: Int => Unit): Unit =
    if (chunks == 1) body(0)
    else java.util.stream.IntStream.range(0, chunks).parallel().forEach(c => body(c))

  /** The first `n` values reordered by ascending key, equal keys keeping
    * their order. Keys are the bits of non-negative doubles, below 1 for
    * an even spread. One stable pass puts each element in bucket
    * `⌊t·2¹⁶⌋` of its key `t` (the last bucket takes every `t ≥ 1`); an
    * insertion sort then orders each bucket by the full key. The input is
    * split into `chunks` contiguous pieces for the bucket pass and the
    * buckets into `chunks` runs for the insertion sorts; every chunk count
    * gives the same order.
    */
  private[stream] def sortStable(keys: Array[Long], values: Array[Int], n: Int, chunks: Int = 1): Array[Int] = {
    def bucket(key: Long): Int =
      math.min((java.lang.Double.longBitsToDouble(key) * Buckets).toInt, Buckets - 1)
    def from(c: Int): Int = (n.toLong * c / chunks).toInt

    // Each input chunk's bucket counts, then its first slot in each bucket.
    val next = Array.ofDim[Int](chunks, Buckets)
    forChunks(chunks) { c =>
      val count = next(c)
      var j = from(c)
      while (j < from(c + 1)) { count(bucket(keys(j))) += 1; j += 1 }
    }
    val start = new Array[Int](Buckets + 1)
    var sum = 0
    var b = 0
    while (b < Buckets) {
      start(b) = sum
      var c = 0
      while (c < chunks) { val k = next(c)(b); next(c)(b) = sum; sum += k; c += 1 }
      b += 1
    }
    start(Buckets) = n

    val k2 = new Array[Long](n)
    val v2 = new Array[Int](n)
    forChunks(chunks) { c =>
      val slot = next(c)
      var j = from(c)
      while (j < from(c + 1)) {
        val b = bucket(keys(j))
        val s = slot(b)
        k2(s) = keys(j)
        v2(s) = values(j)
        slot(b) = s + 1
        j += 1
      }
    }

    // Runs of whole buckets, each starting at the first bucket that
    // begins at or after its share of the output.
    val firstBucket = Array.tabulate(chunks + 1) { c =>
      if (c == chunks) Buckets
      else { var b = 0; while (start(b) < from(c)) b += 1; b }
    }
    forChunks(chunks) { c =>
      var b = firstBucket(c)
      while (b < firstBucket(c + 1)) {
        var j = start(b) + 1
        while (j < start(b + 1)) {
          val k = k2(j)
          val v = v2(j)
          var i = j - 1
          while (i >= start(b) && k2(i) > k) { k2(i + 1) = k2(i); v2(i + 1) = v2(i); i -= 1 }
          k2(i + 1) = k
          v2(i + 1) = v
          j += 1
        }
        b += 1
      }
    }
    v2
  }

  /** Check stream feasibility (insert only absent, delete only present)
    * by replaying it through [[ExactSim]]. Returns the number of events
    * checked; throws on the first violation.
    */
  def assertFeasible(stream: IterableOnce[EdgeEvent]): Long = {
    val exact = new ExactSim
    var n = 0L
    stream.iterator.foreach { e => exact.update(e); n += 1 }
    n
  }
}
