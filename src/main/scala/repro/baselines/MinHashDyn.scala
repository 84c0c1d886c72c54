package repro.baselines

import scala.collection.mutable
import repro.core.{Hashing, SimilaritySketch, UserCounters}
import repro.stream.EdgeEvent

/** MinHash extended to fully dynamic streams (§ III of the paper).
  *
  * Per user, `k` registers hold `φ_j(S_u)` — the item of `S_u` with minimum
  * hash under `h_j` — or ∅. Each element costs O(k): every register is
  * visited.
  *
  * Deletion handling is the paper's three-case extension:
  *   - `(u,i,+)`: set register j to i if empty or `h_j(i) < h_j(φ_j)`;
  *   - `(u,i,−)` with `φ_j = i`: register becomes ∅ (the true argmin of the
  *     remaining items is unknown — this is the sampling bias the paper
  *     identifies: the register stays empty even though `S_u` is non-empty);
  *   - `(u,i,−)` with `φ_j ≠ i`: unchanged (also biased: `i` may have been
  *     hidden behind the stored argmin).
  *
  * Estimator: `Ĵ = (1/k)·Σ_j 1(φ_j(S_u) = φ_j(S_v) ≠ ∅)` and
  * `ŝ = Ĵ·(n_u+n_v)/(Ĵ+1)`.
  *
  * @param k    number of registers per user
  * @param seed seed deriving the k hash functions h_1..h_k
  */
final class MinHashDyn(val k: Int, val seed: Long = 7L)
    extends SimilaritySketch with UserCounters {
  require(k > 0, s"k must be positive, got $k")

  private val regs = mutable.HashMap.empty[Long, Array[Long]]

  override def name: String = "MinHash"

  /** h_j(i): 64-bit value; compared unsigned so it acts as a permutation
    * rank.
    */
  def h(j: Int, item: Long): Long = Hashing.hash64(item, seed + j)

  private def registersOf(user: Long): Array[Long] =
    regs.getOrElseUpdate(user, Array.fill(k)(Registers.Empty))

  override def update(e: EdgeEvent): Unit = {
    val r = registersOf(e.user)
    var j = 0
    if (e.insert) {
      while (j < k) {
        val cur = r(j)
        if (cur == Registers.Empty ||
            java.lang.Long.compareUnsigned(h(j, e.item), h(j, cur)) < 0)
          r(j) = e.item
        j += 1
      }
    } else {
      while (j < k) {
        if (r(j) == e.item) r(j) = Registers.Empty
        j += 1
      }
    }
    bumpCounter(e.user, e.insert)
  }

  /** Register vector for a user (all-∅ if never seen); exposed for tests. */
  def registers(user: Long): Array[Long] =
    regs.getOrElse(user, Array.fill(k)(Registers.Empty))

  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    val jac = Registers.matches(registers(u), registers(v)).toDouble / k
    (SimilaritySketch.commonOf(jac, cardinality(u), cardinality(v)), jac)
  }
}
