package repro.core

import java.lang.ref.WeakReference

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
  * Per-edge update (O(1) amortized, no allocation): `(u,i,a)` flips
  * `A[f_{ψ(i)}(u)]` — XOR makes "+" and "−" on the same (u,i) self-cancel
  * — and adjusts `n_u` by ±1. `update` computes the position at once and
  * queues (position, user, ±1) in a pending block of 64 edges. A full
  * block is applied in two tight loops, all flips and then all counter
  * adds, so the cache misses of many edges are in flight at once. Every
  * reader ([[array]], [[nU]] and all that reads them) applies the pending
  * edges first, so it sees exactly the state of a sequential
  * edge-at-a-time pass. A `BitArray` reference taken from [[array]] does
  * not see edges queued after it was taken: read `array` again. Pending
  * edges are ordinary fields, so a serialized sketch keeps them and
  * applies them on its next read.
  *
  * The array state is XOR-mergeable and the counters sum-mergeable, so
  * sketches built independently over partitions of a stream [[merge]] into
  * exactly the sketch of the whole stream (order-independence of XOR).
  *
  * Pair queries ([[alpha]], [[estimate]], [[estimatePair]]) rebuild each
  * queried user's odd sketch once per snapshot of `A` and keep it in a
  * weakly held memo, which any change to `A` invalidates. Queries
  * therefore write to the sketch: like updates, they are not safe from
  * several threads at once.
  *
  * @param hashes hash bundle fixing (k, m, seed)
  */
final class VOSSketch(val hashes: VOSHashes) extends SimilaritySketch {

  override def name: String = "VOS"

  private val bits     = new BitArray(hashes.m)
  private val counters = new CounterMap

  // The pending block: edges whose position is known but whose flip and
  // counter add are not yet applied.
  private val pendingPos    = new Array[Int](VOSSketch.Block)
  private val pendingUser   = new Array[Long](VOSSketch.Block)
  private val pendingInsert = new Array[Boolean](VOSSketch.Block)
  private var pending       = 0

  /** Shared bit array A, with every queued edge applied (visible for tests
    * and the streaming operator).
    */
  def array: BitArray = {
    if (pending != 0) flush()
    bits
  }

  /** Exact per-user item counters n_u, with every queued edge applied. */
  def nU: CounterMap = {
    if (pending != 0) flush()
    counters
  }

  /** Fraction of 1-bits in A (β in the paper). */
  def beta: Double = array.onesFraction

  /** Number of users with a nonzero count. */
  def numUsers: Int = nU.size

  /** n_u for `user` (0 if never seen). */
  override def cardinality(user: Long): Long = nU.get(user)

  /** Process one stream element in O(1). */
  override def update(e: EdgeEvent): Unit = update(e.user, e.item, e.insert)

  /** Process one stream element in O(1), amortized over a block. */
  def update(user: Long, item: Long, insert: Boolean): Unit = {
    val p = pending
    pendingPos(p) = hashes.position(user, item)
    pendingUser(p) = user
    pendingInsert(p) = insert
    pending = p + 1
    if (p + 1 == VOSSketch.Block) flush()
  }

  /** Apply the pending block: all its flips, then all its counter adds. */
  private def flush(): Unit = {
    val n = pending
    pending = 0
    bits.flipAll(pendingPos, n)
    var i = 0
    while (i < n) {
      counters.add(pendingUser(i), if (pendingInsert(i)) 1L else -1L)
      i += 1
    }
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

  /** Rebuild user `u`'s (noisy) odd sketch `Ô_u[j] = A[f_j(u)]` from the
    * array as it is now. O(k). Never served from the query memo.
    */
  def rebuildOddSketch(user: Long): BitArray = array.gather(hashes.fWalk(user), hashes.k)

  /** Odd sketches rebuilt since the array last changed, by user. Held
    * weakly: it is a cache that any GC may drop, so the retained footprint
    * stays the paper's m bits plus counters. Not serialized.
    */
  @transient private var memoRef: WeakReference[VOSSketch.OddSketchMemo] = _

  /** The memo for the array as it is now, or null if the array has changed
    * since it was made or a GC has dropped it.
    */
  private def currentMemo: VOSSketch.OddSketchMemo = {
    val cur = if (memoRef == null) null else memoRef.get
    if (cur != null && cur.mutations == array.mutationCount) cur else null
  }

  /** The current memo, started afresh if there is none. */
  private def memo: VOSSketch.OddSketchMemo = {
    val cur = currentMemo
    if (cur != null) cur
    else {
      val fresh = new VOSSketch.OddSketchMemo(array.mutationCount)
      memoRef = new WeakReference(fresh)
      fresh
    }
  }

  private def oddSketch(memo: VOSSketch.OddSketchMemo, user: Long): BitArray = {
    var o = memo.byUser.get(user)
    if (o == null) {
      o = rebuildOddSketch(user)
      memo.byUser.put(user, o)
    }
    o
  }

  /** Fraction α of 1-bits in `Ô_u ⊕ Ô_v` — the only sketch-derived input
    * the estimator needs for a pair. Each user's odd sketch is rebuilt once
    * per snapshot of the array (O(k)) and memoized; α is then the Hamming
    * distance of the two, O(k/64).
    */
  def alpha(u: Long, v: Long): Double = {
    val m = memo
    oddSketch(m, u).hammingDistance(oddSketch(m, v)).toDouble / hashes.k
  }

  /** The sketch's own health: β, users, bytes, and how many users have an
    * odd sketch memoized for the array as it is now.
    */
  def health: VOSHealth = {
    val cur = currentMemo
    VOSHealth(beta, numUsers, array.wordBytes, nU.slotBytes, if (cur == null) 0 else cur.byUser.size)
  }

  /** Estimate the pair similarity (ŝ, Ĵ and intermediates) at the current
    * time: O(k/64) once both users' odd sketches are memoized.
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

  /** Edges queued by `update` before they are applied together. */
  private final val Block = 64

  /** Odd sketches rebuilt while `A` had seen `mutations` changes, by user. */
  private final class OddSketchMemo(val mutations: Long) {
    val byUser = new java.util.HashMap[Long, BitArray]
  }

  /** Build a sketch over a full stream sequentially (reference path). */
  def build(hashes: VOSHashes, events: IterableOnce[EdgeEvent]): VOSSketch = {
    val sketch = new VOSSketch(hashes)
    events.iterator.foreach(sketch.update)
    sketch
  }

  /** The paper's sketch-size multiplier λ (§ V). */
  final val Lambda = 2

  /** The paper's equal-memory configuration: baselines get k registers of
    * 32 bits per user, so the shared array has `m = 32·k·numUsers` bits and
    * VOS's virtual sketch has [[paperK]] bits.
    */
  def paperConfig(kBaseline: Int, numUsers: Int, seed: Long = 42L): VOSHashes =
    VOSHashes(k = paperK(kBaseline), m = paperM(kBaseline, numUsers), seed = seed)

  /** The virtual-sketch bits of [[paperConfig]]: `k_vos = λ·32·k`. */
  def paperK(kBaseline: Int): Int = Lambda * 32 * kBaseline

  /** The shared-array bits of [[paperConfig]]: `m = 32·k·numUsers`. */
  def paperM(kBaseline: Int, numUsers: Int): Int = {
    require(kBaseline > 0 && numUsers > 0, s"invalid config: k=$kBaseline users=$numUsers")
    val m = 32L * kBaseline * numUsers
    require(m <= Int.MaxValue, s"m=$m bits exceeds addressable range")
    m.toInt
  }
}

/** A snapshot of a sketch's health.
  *
  * @param beta          fraction of 1-bits in `A`
  * @param users         users with a nonzero counter
  * @param arrayBytes    bytes of `A`'s words
  * @param counterBytes  bytes of the counter table's slots
  * @param memoizedUsers users whose odd sketch is memoized for `A` as it is now
  */
final case class VOSHealth(beta: Double, users: Int, arrayBytes: Long, counterBytes: Long, memoizedUsers: Int)
