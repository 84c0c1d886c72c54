package repro.core

import repro.stream.EdgeEvent

/** Common contract for every similarity-estimation method in the repro
  * (VOS and the three baselines, plus the exact substrate).
  *
  * A sketch consumes a fully dynamic stream one element at a time and can,
  * at any point, produce an estimate of the number of common items `ŝ` and
  * the Jaccard coefficient `Ĵ` for a user pair. The evaluation harness
  * only talks to this interface.
  */
trait SimilaritySketch extends Serializable {

  /** Method name as it appears in the paper's figures. */
  def name: String

  /** Process one stream element. */
  def update(e: EdgeEvent): Unit

  /** Exact current cardinality n_u (every method keeps the counter). */
  def cardinality(user: Long): Long

  /** Estimate (ŝ, Ĵ) for a pair at the current time. */
  def estimatePair(u: Long, v: Long): (Double, Double)
}

/** The two conversions between ŝ and Ĵ that the estimators share, given
  * the exact cardinalities n_u and n_v.
  */
object SimilaritySketch {

  /** `Ĵ = ŝ/(n_u+n_v−ŝ)` clamped into [0, 1]; 0 when both sets are empty. */
  def jaccardOf(s: Double, nu: Long, nv: Long): Double =
    if (nu + nv == 0) 0.0 else math.min(math.max(s / (nu + nv - s), 0.0), 1.0)

  /** `ŝ = Ĵ·(n_u+n_v)/(Ĵ+1)`, the inverse of [[jaccardOf]]. Not clamped: it
    * may exceed min(n_u, n_v), as the paper's formula does.
    */
  def commonOf(j: Double, nu: Long, nv: Long): Double = j * (nu + nv) / (j + 1.0)
}

/** Shared per-user exact counters n_u — the paper keeps one counter per
  * occurred user for every method — in the same [[CounterMap]] as VOS.
  */
trait UserCounters { self: SimilaritySketch =>
  protected val nU = new CounterMap

  override def cardinality(user: Long): Long = nU.get(user)

  protected def bumpCounter(user: Long, insert: Boolean): Unit =
    nU.add(user, if (insert) 1L else -1L)
}
