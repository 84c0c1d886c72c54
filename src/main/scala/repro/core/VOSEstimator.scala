package repro.core

/** Similarity estimate for one user pair from a VOS sketch.
  *
  * @param nDeltaRaw  unclamped estimate of |S_u Δ S_v| (symmetric difference)
  * @param sRaw       unclamped estimate of s_{u,v} = |S_u ∩ S_v|
  * @param s          ŝ clamped into [0, min(n_u, n_v)]
  * @param jaccard    Ĵ = ŝ/(n_u+n_v−ŝ) clamped into [0, 1]
  * @param alpha      observed 1-bit fraction of Ô_u ⊕ Ô_v
  * @param beta       1-bit fraction of the shared array at estimation time
  */
final case class VOSEstimate(
    nDeltaRaw: Double,
    sRaw: Double,
    s: Double,
    jaccard: Double,
    alpha: Double,
    beta: Double,
)

/** Closed-form VOS estimator (§ IV of the paper).
  *
  * From the odd-sketch analysis, a bit of `O_u ⊕ O_v` is 1 with probability
  * `(1 − (1−2/k)^{n_Δ})/2`; passing each rebuilt bit through the
  * contamination channel (flip with probability β, independently for u and
  * v) multiplies the `(1−2/k)^{n_Δ}` term by `(1−2β)²`. Inverting the
  * resulting expectation of α gives
  *
  *   n̂_Δ = −k·( ln|1−2α| − 2·ln|1−2β| ) / 2
  *   ŝ   = (n_u + n_v)/2 − n̂_Δ/2
  *   Ĵ   = ŝ / (n_u + n_v − ŝ)
  *
  * (the paper folds the first two lines into one expression for ŝ).
  */
object VOSEstimator {

  /** Smallest magnitude allowed inside the logs; α = 1/2 (a saturated
    * sketch) or β = 1/2 (a saturated array) make the estimator blow up,
    * exactly as the original odd sketch does when n_Δ ≫ k.
    */
  private val Eps = 1e-12

  private def safeLogAbs(x: Double): Double = math.log(math.max(math.abs(x), Eps))

  /** Estimate n̂_Δ = |S_u Δ S_v| from (k, α, β). */
  def estimateNDelta(k: Int, alpha: Double, beta: Double): Double = {
    require(k > 0, s"k must be positive, got $k")
    require(alpha >= 0 && alpha <= 1, s"alpha out of [0,1]: $alpha")
    require(beta >= 0 && beta <= 1, s"beta out of [0,1]: $beta")
    -k * (safeLogAbs(1 - 2 * alpha) - 2 * safeLogAbs(1 - 2 * beta)) / 2.0
  }

  /** Full pair estimate given exact cardinalities n_u, n_v. */
  def estimate(k: Int, alpha: Double, beta: Double, nu: Long, nv: Long): VOSEstimate = {
    require(nu >= 0 && nv >= 0, s"cardinalities must be nonnegative: $nu, $nv")
    val nDelta = estimateNDelta(k, alpha, beta)
    val sRaw   = (nu + nv) / 2.0 - nDelta / 2.0
    val s      = math.min(math.max(sRaw, 0.0), math.min(nu, nv).toDouble)
    VOSEstimate(nDelta, sRaw, s, SimilaritySketch.jaccardOf(s, nu, nv), alpha, beta)
  }

  /** Theoretical P(Ô_u[j] ⊕ Ô_v[j] = 1) for true symmetric difference
    * `nDelta` under contamination β (§ IV). Used by calibration tests.
    */
  def expectedAlpha(k: Int, nDelta: Long, beta: Double): Double = {
    require(k > 0 && nDelta >= 0, s"bad args k=$k nDelta=$nDelta")
    (1 - math.pow(1 - 2 * beta, 2) * math.pow(1 - 2.0 / k, nDelta.toDouble)) / 2.0
  }

  /** Paper's approximation E(ŝ) (§ IV). Exposed for the analysis tests.
    *
    * Checked only at β = 0. At β > 0 it disagrees with observed errors: at
    * the end of the default youtube-lite stream (β ≈ 0.021, k = 6,400,
    * pairs of the 150 largest users) the mean error of the raw ŝ is +2.6,
    * while this formula predicts about −203.
    */
  def expectedSHat(k: Int, nDelta: Long, beta: Double, s: Double): Double = {
    val c = 1 - 2 * beta
    s + 1.0 / 8 -
      k * beta * math.exp(2.0 * nDelta / k) / (c * c) -
      math.exp(4.0 * nDelta / k) / (8 * math.pow(c, 4))
  }

  /** Paper's approximation Var(ŝ) (§ IV). Exposed for the analysis tests.
    *
    * Checked only at β = 0. At β > 0 it disagrees with observed errors: in
    * the setting of [[expectedSHat]] the mean squared error of the raw ŝ is
    * about 300, while this formula averages about 650,000.
    */
  def varianceSHat(k: Int, nDelta: Long, beta: Double): Double = {
    val c = 1 - 2 * beta
    -k / 16.0 +
      k * k * beta * math.exp(2.0 * nDelta / k) / (2 * c * c) +
      k * math.exp(4.0 * nDelta / k) / (16 * math.pow(c, 4))
  }
}
