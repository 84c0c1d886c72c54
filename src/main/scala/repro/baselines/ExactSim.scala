package repro.baselines

import scala.collection.mutable
import repro.core.SimilaritySketch
import repro.stream.EdgeEvent

/** Exact similarity substrate: maintains every user's item set verbatim and
  * answers `s_{u,v}` and `J(S_u, S_v)` exactly. This is the ground truth
  * the AAPE/ARMSE metrics are computed against, and also the reference the
  * feasibility checker uses.
  *
  * Memory is O(total current edges) — the very cost the sketches avoid —
  * which is fine at repro scale.
  */
final class ExactSim extends SimilaritySketch {

  private val sets = mutable.HashMap.empty[Long, mutable.HashSet[Long]]

  override def name: String = "Exact"

  override def update(e: EdgeEvent): Unit = {
    val s = sets.getOrElseUpdate(e.user, mutable.HashSet.empty)
    if (e.insert) {
      require(s.add(e.item),
        s"infeasible stream: duplicate insert of item ${e.item} for user ${e.user} at t=${e.time}")
    } else {
      require(s.remove(e.item),
        s"infeasible stream: delete of absent item ${e.item} for user ${e.user} at t=${e.time}")
      if (s.isEmpty) sets.remove(e.user)
    }
  }

  override def cardinality(user: Long): Long =
    sets.get(user).map(_.size.toLong).getOrElse(0L)

  /** Exact s_{u,v} = |S_u ∩ S_v|, iterating the smaller set. */
  def commonItems(u: Long, v: Long): Long = {
    (sets.get(u), sets.get(v)) match {
      case (Some(a), Some(b)) =>
        val (small, large) = if (a.size <= b.size) (a, b) else (b, a)
        var c = 0L
        small.foreach(i => if (large.contains(i)) c += 1)
        c
      case _ => 0L
    }
  }

  /** Exact (s_{u,v}, J), intersecting the two sets once. */
  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    val s     = commonItems(u, v).toDouble
    val union = cardinality(u) + cardinality(v) - s
    (s, if (union == 0) 0.0 else s / union)
  }

  /** All users currently holding at least one item. */
  def users: Iterable[Long] = sets.keys
}
