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
      edges: IndexedSeq[(Long, Long)],
      d: Double = 0.5,
      r: Double = 0.5,
      seed: Long = 1234L,
  ): IndexedSeq[EdgeEvent] = {
    require(d >= 0 && d <= 1, s"d out of [0,1]: $d")
    require(r >= 0 && r <= 1, s"r out of [0,1]: $r")
    require(edges.size < (1 << 30), s"too many edges: ${edges.size}")
    val rng   = new java.util.SplittableRandom(seed)
    val users = new Array[Long](edges.size)
    val items = new Array[Long](edges.size)

    // Per action, in generation order: its virtual timestamp's bits (a
    // non-negative double's bits order like the double) and its edge index
    // times 2, plus 1 for a deletion (actions alternate ins, del, ins).
    var stamps  = new Array[Long](edges.size + edges.size / 2 + 3)
    var actions = new Array[Int](stamps.length)
    var n = 0
    var e = 0
    edges.foreach { case (u, i) =>
      users(e) = u
      items(e) = i
      val nActs =
        if (rng.nextDouble() >= d) 1
        else if (rng.nextDouble() >= r) 2
        else 3
      // Sort the 1–3 timestamps; an absent one reads 1.0 and stays last.
      var t0 = rng.nextDouble()
      var t1 = if (nActs > 1) rng.nextDouble() else 1.0
      var t2 = if (nActs > 2) rng.nextDouble() else 1.0
      if (t1 < t0) { val t = t0; t0 = t1; t1 = t }
      if (t2 < t1) { val t = t1; t1 = t2; t2 = t }
      if (t1 < t0) { val t = t0; t0 = t1; t1 = t }
      if (n + 3 > stamps.length) {
        stamps = java.util.Arrays.copyOf(stamps, 2 * stamps.length)
        actions = java.util.Arrays.copyOf(actions, stamps.length)
      }
      stamps(n) = java.lang.Double.doubleToRawLongBits(t0)
      stamps(n + 1) = java.lang.Double.doubleToRawLongBits(t1)
      stamps(n + 2) = java.lang.Double.doubleToRawLongBits(t2)
      var a = 0
      while (a < nActs) { actions(n + a) = 2 * e + (a & 1); a += 1 }
      n += nActs
      e += 1
    }

    val order  = sortStable(stamps, actions, n)
    val events = new Array[EdgeEvent](n)
    var t = 0
    while (t < n) {
      val a = order(t)
      events(t) = EdgeEvent(users(a >>> 1), items(a >>> 1), (a & 1) == 0, t + 1L)
      t += 1
    }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(events)
  }

  /** The first `n` values reordered by ascending key, equal keys keeping
    * their order: an LSD radix sort over 16-bit digits of non-negative
    * keys. Reuses `keys` and `values` as scratch.
    */
  private[stream] def sortStable(keys: Array[Long], values: Array[Int], n: Int): Array[Int] = {
    var k     = keys
    var v     = values
    var k2    = new Array[Long](n)
    var v2    = new Array[Int](n)
    val start = new Array[Int](1 << 16)
    var shift = 0
    while (shift < 64 && n > 0) {
      java.util.Arrays.fill(start, 0)
      var j = 0
      while (j < n) { start(((k(j) >>> shift) & 0xFFFF).toInt) += 1; j += 1 }
      if (start(((k(0) >>> shift) & 0xFFFF).toInt) != n) { // else every key shares this digit
        var sum = 0
        var b   = 0
        while (b < start.length) { val c = start(b); start(b) = sum; sum += c; b += 1 }
        j = 0
        while (j < n) {
          val b = ((k(j) >>> shift) & 0xFFFF).toInt
          k2(start(b)) = k(j)
          v2(start(b)) = v(j)
          start(b) += 1
          j += 1
        }
        val tk = k; k = k2; k2 = tk
        val tv = v; v = v2; v2 = tv
      }
      shift += 16
    }
    v
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
