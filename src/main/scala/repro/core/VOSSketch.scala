package repro.core

import repro.stream.EdgeEvent

/** VOS — virtual odd sketch (the paper's contribution, § IV).
  *
  * State:
  *   - `A`: one shared bit array of `m` bits. Each user's k-bit odd sketch
  *     `O_u` is stored *virtually*: bit `j` of `O_u` lives at `A[f_j(u)]`,
  *     so users share (and contaminate) bits — that collision noise is the
  *     `β` term the estimator corrects for.
  *   - `nU`: exact per-user subscription counters `n_u` (the paper keeps a
  *     counter per occurred user) in a [[CounterMap]]: unboxed, a user
  *     whose count returns to 0 is removed, and a partial sketch may hold
  *     negative counts until it is merged.
  *   - the 1-bit count of `A`, from which `β` (fraction of 1-bits) is read
  *     in O(1). The paper maintains β with an incremental ±2/(2m) update;
  *     an integer ones-count is the same quantity without float drift.
  *
  * Per-edge update (O(1), no allocation): `(u,i,a)` flips `A[f_{ψ(i)}(u)]`
  * — XOR makes "+" and "−" on the same (u,i) self-cancel — and adjusts
  * `n_u` by ±1.
  *
  * The array state is XOR-mergeable and the counters sum-mergeable, so
  * sketches built independently over partitions of a stream [[merge]] into
  * exactly the sketch of the whole stream (order-independence of XOR).
  *
  * @param hashes hash bundle fixing (k, m, seed)
  */
final class VOSSketch(val hashes: VOSHashes) extends SimilaritySketch {

  override def name: String = "VOS"

  /** Shared bit array A (visible for tests and the streaming operator). */
  val array = new BitArray(hashes.m)

  /** Exact per-user item counters n_u. */
  val nU: CounterMap = new CounterMap

  /** Fraction of 1-bits in A (β in the paper). */
  def beta: Double = array.onesFraction

  /** Number of users with a nonzero count. */
  def numUsers: Int = nU.size

  /** n_u for `user` (0 if never seen). */
  override def cardinality(user: Long): Long = nU.get(user)

  /** Process one stream element in O(1). */
  override def update(e: EdgeEvent): Unit = update(e.user, e.item, e.insert)

  /** Process one stream element in O(1). */
  def update(user: Long, item: Long, insert: Boolean): Unit = {
    array.flip(hashes.position(user, item))
    nU.add(user, if (insert) 1L else -1L)
  }

  /** Fold a whole stream prefix into this sketch. */
  def updateAll(events: IterableOnce[EdgeEvent]): this.type = {
    events.iterator.foreach(update)
    this
  }

  /** Merge another partial sketch built with the same `hashes` (XOR the
    * arrays, sum the counters). Associative and commutative.
    */
  def merge(other: VOSSketch): this.type = {
    require(other.hashes == hashes,
      s"cannot merge sketches with different configs: $hashes vs ${other.hashes}")
    array.xorInPlace(other.array)
    nU.addAll(other.nU)
    this
  }

  /** Rebuild user `u`'s (noisy) odd sketch `Ô_u[j] = A[f_j(u)]`. O(k). */
  def rebuildOddSketch(user: Long): BitArray = {
    val o = new BitArray(hashes.k)
    var j = 0
    while (j < hashes.k) {
      if (array.get(hashes.f(j, user)) == 1) o.flip(j)
      j += 1
    }
    o
  }

  /** Fraction α of 1-bits in `Ô_u ⊕ Ô_v` — the only sketch-derived input
    * the estimator needs for a pair. O(k).
    */
  def alpha(u: Long, v: Long): Double = {
    var diff = 0
    var j    = 0
    while (j < hashes.k) {
      if (array.get(hashes.f(j, u)) != array.get(hashes.f(j, v))) diff += 1
      j += 1
    }
    diff.toDouble / hashes.k
  }

  /** Estimate the pair similarity (ŝ, Ĵ and intermediates) at the current
    * time. O(k).
    */
  def estimate(u: Long, v: Long): VOSEstimate =
    VOSEstimator.estimate(hashes.k, alpha(u, v), beta, cardinality(u), cardinality(v))

  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    val e = estimate(u, v)
    (e.s, e.jaccard)
  }

  /** Deep copy (used by checkpointing harnesses). */
  def copyOf(): VOSSketch = {
    val s = new VOSSketch(hashes)
    s.array.xorInPlace(array)
    s.nU.addAll(nU)
    s
  }
}

object VOSSketch {

  /** Build a sketch over a full stream sequentially (reference path). */
  def build(hashes: VOSHashes, events: IterableOnce[EdgeEvent]): VOSSketch =
    new VOSSketch(hashes).updateAll(events)

  /** The paper's equal-memory configuration: baselines get k registers of
    * 32 bits per user, so the shared array has `m = 32·k·numUsers` bits and
    * VOS's virtual sketch has `k_vos = λ·32·k` bits.
    */
  def paperConfig(kBaseline: Int, numUsers: Int, lambda: Int = 2, seed: Long = 42L): VOSHashes = {
    require(kBaseline > 0 && numUsers > 0 && lambda > 0,
      s"invalid config: k=$kBaseline users=$numUsers lambda=$lambda")
    val m = 32L * kBaseline * numUsers
    require(m <= Int.MaxValue, s"m=$m bits exceeds addressable range")
    VOSHashes(k = lambda * 32 * kBaseline, m = m.toInt, seed = seed)
  }
}
