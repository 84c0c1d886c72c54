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

  /** ∅ sample sentinel (item ids are nonnegative). */
  val Empty: Long = -1L

  /** State of the k samplers of one user. */
  private final class UserState {
    val phi = Array.fill(k)(Empty)
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
          if (st.phi(j) == Empty || rng.nextLong(n + 1) == 0L) st.phi(j) = e.item
        }
        j += 1
      }
    } else {
      while (j < k) {
        if (st.phi(j) == e.item) { st.phi(j) = Empty; st.c1(j) += 1 }
        else st.c2(j) += 1
        j += 1
      }
    }
    bumpCounter(e.user, e.insert)
  }

  /** Current samples of a user (all-∅ if never seen); exposed for tests. */
  def samples(user: Long): Array[Long] =
    states.get(user).map(_.phi.clone()).getOrElse(Array.fill(k)(Empty))

  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    val pu = states.get(u).map(_.phi).getOrElse(Array.fill(k)(Empty))
    val pv = states.get(v).map(_.phi).getOrElse(Array.fill(k)(Empty))
    var matches = 0
    var j = 0
    while (j < k) {
      if (pu(j) != Empty && pu(j) == pv(j)) matches += 1
      j += 1
    }
    val nu = cardinality(u).toDouble
    val nv = cardinality(v).toDouble
    val s  = math.min(nu * nv * matches / k, math.min(nu, nv))
    val j2 = if (nu + nv == 0) 0.0 else math.min(s / (nu + nv - s), 1.0)
    (s, j2)
  }
}
