package repro.baselines

import scala.collection.mutable
import repro.core.{SimilaritySketch, UserCounters}
import repro.stream.EdgeEvent

/** Random Pairing (Gemulla, Lehner, Haas 2008) as the paper uses it
  * (§ III): per user, `k` *independent* size-1 RP samplers
  * `φ_1(S_u)..φ_k(S_u)`, each maintaining a uniform sample of one item of
  * `S_u` under insertions and deletions. Every element visits all k
  * samplers — O(k) per update, which is why the paper measures RP at
  * MinHash-like runtime.
  *
  * One size-1 RP sampler:
  *   - delete i: if the sample is i → sample := ∅, c1++ (uncompensated
  *     deletion of a sampled item); else c2++;
  *   - insert i: if c1+c2 > 0 → with prob c1/(c1+c2) take i (c1−−) else
  *     discard (c2−−); otherwise plain reservoir-1 (take with prob 1/n).
  *
  * Because u's and v's samplers are independent,
  * `P(φ_j(S_u) = φ_j(S_v)) = s_{u,v}/(n_u·n_v)`, giving
  * `ŝ = (n_u·n_v/k)·Σ_j 1(φ_j(S_u) = φ_j(S_v) ≠ ∅)`. (The paper's formula
  * omits the 1/k normalizer; `E[Σ_j 1(match)] = k·s/(n_u n_v)`, so
  * unbiasedness requires it — we keep it.)
  *
  * @param k    samplers per user
  * @param seed RNG seed (sampling decisions are the only randomness)
  */
final class RandomPairing(val k: Int, val seed: Long = 13L)
    extends SimilaritySketch with UserCounters {
  require(k > 0, s"k must be positive, got $k")

  /** State of the k samplers of one user. */
  private final class UserState {
    val phi = Array.fill(k)(Registers.Empty)
    val c1  = new Array[Int](k)
    val c2  = new Array[Int](k)
  }

  private val states = mutable.HashMap.empty[Long, UserState]
  private val rng    = new java.util.SplittableRandom(seed)

  override def name: String = "RP"

  override def update(e: EdgeEvent): Unit = {
    val st = states.getOrElseUpdate(e.user, new UserState)
    val n  = cardinality(e.user) // before this element
    var j  = 0
    if (e.insert) {
      while (j < k) {
        val d = st.c1(j) + st.c2(j)
        if (d > 0) {
          // Compensation phase: refill with prob c1/(c1+c2).
          if (rng.nextInt(d) < st.c1(j)) { st.phi(j) = e.item; st.c1(j) -= 1 }
          else st.c2(j) -= 1
        } else {
          // Plain reservoir of size 1 over n+1 items.
          if (st.phi(j) == Registers.Empty || rng.nextLong(n + 1) == 0L) st.phi(j) = e.item
        }
        j += 1
      }
    } else {
      while (j < k) {
        if (st.phi(j) == e.item) { st.phi(j) = Registers.Empty; st.c1(j) += 1 }
        else st.c2(j) += 1
        j += 1
      }
    }
    bumpCounter(e.user, e.insert)
  }

  /** Current samples of a user (all-∅ if never seen); exposed for tests. */
  def samples(user: Long): Array[Long] = phi(user).clone()

  private def phi(user: Long): Array[Long] = states.get(user).fold(Array.fill(k)(Registers.Empty))(_.phi)

  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    val nu = cardinality(u)
    val nv = cardinality(v)
    val s  = math.min(nu.toDouble * nv * Registers.matches(phi(u), phi(v)) / k, math.min(nu, nv).toDouble)
    (s, SimilaritySketch.jaccardOf(s, nu, nv))
  }
}
