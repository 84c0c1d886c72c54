package repro.baselines

import scala.collection.mutable
import repro.core.{Hashing, SimilaritySketch, UserCounters}
import repro.stream.EdgeEvent

/** One Permutation Hashing (OPH, Li et al. 2012) extended to fully dynamic
  * streams (§ III of the paper).
  *
  * One hash `h` plays the role of the single permutation; the item universe
  * is split into `k` equal bins by the high bits of `h(i)`, and each user
  * keeps, per bin, the item of `S_u` with minimum hash falling in that bin
  * (or ∅). Each element touches exactly one bin — O(1) per update.
  *
  * Deletion handling mirrors the MinHash extension: deleting the stored
  * argmin empties the bin (bias), deleting anything else is a no-op.
  *
  * Estimator (paper § III):
  * `Ĵ = Σ 1(oph_j(S_u) = oph_j(S_v) ≠ ∅) / Σ 1(oph_j(S_u) ≠ ∅ ∨ oph_j(S_v) ≠ ∅)`
  * and `ŝ = Ĵ·(n_u+n_v)/(Ĵ+1)`.
  *
  * @param k    number of bins per user
  * @param seed seed of the single permutation hash
  */
final class OPHDyn(val k: Int, val seed: Long = 11L)
    extends SimilaritySketch with UserCounters {
  require(k > 0, s"k must be positive, got $k")

  /** ∅ register sentinel (item ids are nonnegative). */
  val Empty: Long = -1L

  // Bins are stored sparsely (bin → item): an update touches one bin, so
  // the per-edge cost stays O(1) even at k = 10⁵ where a dense per-user
  // Array(k) would make *allocation* on first occurrence dominate the
  // runtime measurement. An absent key and an emptied bin are both ∅,
  // exactly as in the dense formulation.
  private val regs = mutable.HashMap.empty[Long, mutable.HashMap[Int, Long]]

  override def name: String = "OPH"

  /** The single permutation surrogate h(i). */
  def h(item: Long): Long = Hashing.hash64(item, seed)

  /** Bin of item i — the high bits of h(i), so bin and rank come from the
    * same permutation as in the original OPH.
    */
  def bin(item: Long): Int = Hashing.reduce(h(item), k)

  override def update(e: EdgeEvent): Unit = {
    val r = regs.getOrElseUpdate(e.user, mutable.HashMap.empty)
    val j = bin(e.item)
    if (e.insert) {
      r.get(j) match {
        case Some(cur)
            if java.lang.Long.compareUnsigned(h(e.item), h(cur)) >= 0 => ()
        case _ => r.update(j, e.item)
      }
    } else {
      if (r.get(j).contains(e.item)) r.remove(j)
    }
    bumpCounter(e.user, e.insert)
  }

  /** Dense register vector for a user (∅-filled); exposed for tests. */
  def registers(user: Long): Array[Long] = {
    val r = regs.getOrElse(user, mutable.HashMap.empty[Int, Long])
    Array.tabulate(k)(j => r.getOrElse(j, Empty))
  }

  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    val ru = regs.getOrElse(u, mutable.HashMap.empty[Int, Long])
    val rv = regs.getOrElse(v, mutable.HashMap.empty[Int, Long])
    var num = 0
    var den = 0
    ru.foreach { case (j, a) =>
      den += 1
      if (rv.get(j).contains(a)) num += 1
    }
    rv.keysIterator.foreach(j => if (!ru.contains(j)) den += 1)
    val jac = if (den == 0) 0.0 else num.toDouble / den
    val s   = jac * (cardinality(u) + cardinality(v)) / (jac + 1.0)
    (s, jac)
  }
}
