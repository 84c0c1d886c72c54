package repro.baselines

import repro.core.{CounterMap, Hashing, SimilaritySketch, UserCounters}
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

  /** Bin j of user u at key `u·k + j`, holding its item + 1; an absent key
    * (count 0) is ∅.
    */
  private val bins = new CounterMap

  override def name: String = "OPH"

  /** The single permutation surrogate h(i). */
  def h(item: Long): Long = Hashing.hash64(item, seed)

  /** Bin of item i — the high bits of h(i), so bin and rank come from the
    * same permutation as in the original OPH.
    */
  def bin(item: Long): Int = Hashing.reduce(h(item), k)

  /** Key of `user`'s bin j; throws rather than wrap onto another user's. */
  private def key(user: Long, j: Int): Long = Math.addExact(Math.multiplyExact(user, k.toLong), j.toLong)

  override def update(e: EdgeEvent): Unit = {
    val b   = key(e.user, bin(e.item))
    val cur = bins.get(b)
    if (e.insert) {
      if (cur == 0L || java.lang.Long.compareUnsigned(h(e.item), h(cur - 1)) < 0)
        bins.add(b, e.item + 1 - cur)
    } else if (cur == e.item + 1) bins.add(b, -cur)
    bumpCounter(e.user, e.insert)
  }

  /** Dense register vector for a user (∅-filled); exposed for tests. */
  def registers(user: Long): Array[Long] =
    Array.tabulate(k)(j => bins.get(key(user, j)) - 1) // ∅ (0) becomes Registers.Empty

  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    var num = 0
    var den = 0
    var j   = 0
    while (j < k) {
      val a = bins.get(key(u, j))
      val b = bins.get(key(v, j))
      if (a != 0L || b != 0L) den += 1
      if (a != 0L && a == b) num += 1
      j += 1
    }
    val jac = if (den == 0) 0.0 else num.toDouble / den
    (SimilaritySketch.commonOf(jac, cardinality(u), cardinality(v)), jac)
  }
}
