package repro

import scala.collection.mutable
import repro.stream.{EdgeEvent, Edges}

/** Test-only generators of feasible fully dynamic streams. */
object TestStreams {

  /** Random feasible stream: at each step, with probability `delProb`
    * delete a uniformly random present edge (if any), otherwise insert a
    * uniformly random absent (user, item) pair. Deterministic in `seed`.
    */
  def random(
      numUsers: Int,
      numItems: Int,
      length: Int,
      delProb: Double = 0.3,
      seed: Long = 99L,
  ): IndexedSeq[EdgeEvent] = {
    val rng     = new java.util.SplittableRandom(seed)
    val present = mutable.ArrayBuffer.empty[(Long, Long)]
    val index   = mutable.HashMap.empty[(Long, Long), Int]
    val out     = IndexedSeq.newBuilder[EdgeEvent]
    var t       = 1L
    var made    = 0
    while (made < length) {
      if (present.nonEmpty && rng.nextDouble() < delProb) {
        val i   = rng.nextInt(present.size)
        val key = present(i)
        val last = present.last
        present(i) = last; index(last) = i
        present.remove(present.size - 1); index.remove(key)
        out += EdgeEvent(key._1, key._2, insert = false, t)
      } else {
        var key: (Long, Long) = null
        var tries = 0
        while (key == null && tries < 1000) {
          val cand = (rng.nextInt(numUsers).toLong, rng.nextInt(numItems).toLong)
          if (!index.contains(cand)) key = cand
          tries += 1
        }
        if (key == null) {
          // Graph saturated: fall back to a deletion.
          val i  = rng.nextInt(present.size)
          val k2 = present(i)
          val last = present.last
          present(i) = last; index(last) = i
          present.remove(present.size - 1); index.remove(k2)
          out += EdgeEvent(k2._1, k2._2, insert = false, t)
        } else {
          index(key) = present.size
          present += key
          out += EdgeEvent(key._1, key._2, insert = true, t)
        }
      }
      made += 1
      t += 1
    }
    out.result()
  }

  /** The (user, item) pairs of `edges`, in order. */
  def pairs(edges: Edges): IndexedSeq[(Long, Long)] =
    edges.users.indices.map(e => (edges.users(e).toLong, edges.items(e).toLong))

  /** An edge list of the (user, item) pairs `ps`, in order. */
  def edges(ps: Seq[(Long, Long)]): Edges =
    new Edges(ps.map(_._1.toInt).toArray, ps.map(_._2.toInt).toArray)

  /** Insert-only stream subscribing each (user, item) pair once. */
  def insertOnly(pairs: Seq[(Long, Long)]): IndexedSeq[EdgeEvent] =
    pairs.zipWithIndex.map { case ((u, i), t) => EdgeEvent(u, i, insert = true, t + 1L) }.toIndexedSeq

  /** Stream giving `u` exactly the items in `items` via extra churn: every
    * item in `churn` is inserted then deleted.
    */
  def withChurn(u: Long, items: Seq[Long], churn: Seq[Long]): IndexedSeq[EdgeEvent] = {
    require(items.intersect(churn).isEmpty, "churn items must be disjoint from kept items")
    val evs = mutable.ArrayBuffer.empty[EdgeEvent]
    var t = 1L
    churn.foreach { i => evs += EdgeEvent(u, i, insert = true, t); t += 1 }
    items.foreach { i => evs += EdgeEvent(u, i, insert = true, t); t += 1 }
    churn.foreach { i => evs += EdgeEvent(u, i, insert = false, t); t += 1 }
    evs.toIndexedSeq
  }

  private val NoSets = Map.empty[Long, Set[Long]].withDefaultValue(Set.empty[Long])

  private def applied(sets: Map[Long, Set[Long]], e: EdgeEvent): Map[Long, Set[Long]] = {
    val s = if (e.insert) sets(e.user) + e.item else sets(e.user) - e.item
    if (s.isEmpty) sets - e.user else sets.updated(e.user, s)
  }

  /** Each user's item set once every event of `events` is applied: the
    * users with at least one item are the keys, and any other user maps
    * to the empty set.
    */
  def finalSets(events: Seq[EdgeEvent]): Map[Long, Set[Long]] = events.foldLeft(NoSets)(applied)

  /** [[finalSets]] after each prefix of `events`: element t holds the sets
    * once events 0..t are applied.
    */
  def prefixSets(events: Seq[EdgeEvent]): Seq[Map[Long, Set[Long]]] = events.scanLeft(NoSets)(applied).tail
}
