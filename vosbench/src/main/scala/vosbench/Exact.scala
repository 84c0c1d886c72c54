package vosbench

import scala.collection.mutable

/** Ground truth computed apart from the program: the stream (or a prefix
  * of it) replayed into one plain set of present (user, item) edges.
  *
  * @param upTo number of leading events to replay
  */
final class Exact(stream: Stream, upTo: Int) {
  private val numItems = stream.spec.numItems.toLong

  private def key(u: Long, i: Long): Long = u * numItems + i

  /** Edges present after the first `upTo` events, as (user, item) keys. */
  val present: mutable.HashSet[Long] = {
    val s = mutable.HashSet.empty[Long]
    var e = 0
    while (e < upTo) {
      val k = key(stream.users(e), stream.items(e))
      val ok = if (stream.inserts(e)) s.add(k) else s.remove(k)
      require(ok, s"generated stream is infeasible at event $e")
      e += 1
    }
    s
  }

  /** Size of each user's final item set, indexed by user id. */
  val sizes: Array[Long] = {
    val c = new Array[Long](stream.spec.numUsers)
    present.foreach(k => c((k / numItems).toInt) += 1)
    c
  }

  /** Final edges as (user, item). */
  def edges: Iterator[(Long, Long)] = present.iterator.map(k => (k / numItems, k % numItems))

  /** Final item sets of `users`. */
  def itemSets(users: Array[Long]): Map[Long, Set[Long]] = {
    val want = users.toSet
    edges.filter(e => want(e._1)).toSeq.groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap
      .withDefaultValue(Set.empty)
  }

  /** Exact |S_u ∩ S_v| for each pair. */
  def intersections(pairs: Array[(Long, Long)]): Array[Double] = {
    val sets = itemSets(pairs.flatMap(p => Array(p._1, p._2)).distinct)
    pairs.map { case (u, v) =>
      val (a, b) = if (sets(u).size <= sets(v).size) (sets(u), sets(v)) else (sets(v), sets(u))
      a.count(b).toDouble
    }
  }
}

object Exact {

  /** Every pair (u, v), u before v, of `users`. */
  def allPairs(users: Array[Long]): Array[(Long, Long)] =
    (for (i <- users.indices; j <- i + 1 until users.length) yield (users(i), users(j))).toArray
}
