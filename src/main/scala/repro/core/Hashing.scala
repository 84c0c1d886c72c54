package repro.core

import java.util.function.IntSupplier

/** Deterministic seeded hash family used by every sketch in this repo.
  *
  * The paper assumes ideal random hash functions: ψ maps items to
  * `{1..k}`, `f_1..f_k` map users to `{1..m}`, and MinHash's `h_1..h_k`
  * are random permutations of the item universe. We realize all of them
  * with a 64-bit finalizer (SplitMix64 / Murmur3-style avalanche) applied
  * to `key ⊕ seed`: collisions over a 64-bit codomain are negligible at
  * our scales, so `mix64` behaves as a random injection (a permutation
  * surrogate) and reduced ranges behave as uniform random functions.
  *
  * Everything is a pure function of (key, seed), so sequential, batch
  * (`VOSAggregator`) and streaming builds of a sketch agree bit-for-bit.
  */
object Hashing {

  /** SplitMix64 finalizer: avalanching bijection on 64-bit values. */
  def mix64(x0: Long): Long = {
    var x = x0
    x ^= x >>> 30; x *= 0xbf58476d1ce4e5b9L
    x ^= x >>> 27; x *= 0x94d049bb133111ebL
    x ^= x >>> 31
    x
  }

  /** Input of [[mix64]] in `hash64(key, seed)`. It is linear in `seed`
    * (mod 2⁶⁴), so stepping the seed by a constant steps the input by a
    * constant too.
    */
  def hashInput(key: Long, seed: Long): Long = key + 0x9e3779b97f4a7c15L * (seed + 1)

  /** Seeded 64-bit hash of `key`. Distinct seeds give (effectively)
    * independent functions.
    */
  def hash64(key: Long, seed: Long): Long = mix64(hashInput(key, seed))

  /** `h` read as unsigned, scaled to `[0, n)` without modulo bias:
    * `(h · n) >> 64`. `n > 0`.
    */
  def reduce(h: Long, n: Int): Int =
    (Math.multiplyHigh(h, n.toLong) + (if (h < 0) n.toLong else 0L)).toInt
}

/** Hash-function bundle for one VOS sketch configuration.
  *
  * @param k    virtual odd-sketch length in bits (ψ's range)
  * @param m    shared bit-array length in bits (f_j's range)
  * @param seed base seed; derived seeds keep ψ and each f_j independent
  */
final case class VOSHashes(k: Int, m: Int, seed: Long) extends Serializable {
  require(k > 0, s"k must be positive, got $k")
  require(m > 0, s"m must be positive, got $m")

  private val psiSeed = Hashing.mix64(seed ^ 0x5bf03635c1a4a1e5L)
  private val fSeed   = Hashing.mix64(seed ^ 0x27d4eb2f165667c5L)

  /** ψ(i) ∈ [0, k): which bit of user's odd sketch item `i` lands in. */
  def psi(item: Long): Int = Hashing.reduce(Hashing.hash64(item, psiSeed), k)

  /** f_j(u) ∈ [0, m): which bit of the shared array stores bit j of u's
    * odd sketch. The per-edge position is `f(psi(i), u)` — two hash
    * evaluations, O(1).
    */
  def f(j: Int, user: Long): Int = {
    require(j >= 0 && j < k, s"register index $j out of [0,$k)")
    fUnchecked(j, user)
  }

  private def fUnchecked(j: Int, user: Long): Int =
    Hashing.reduce(Hashing.hash64(user, fSeed + VOSHashes.FStride * j), m)

  /** Cursor over user `u`'s odd-sketch positions in the shared array: the
    * j-th `getAsInt` (from 0) returns `f(j, u)`; the first k calls give the
    * whole odd sketch. The seed of `f_j` grows by `FStride` per j, so the
    * hash input grows by a constant and a step costs one mix and one
    * multiply-high, with no per-j checks.
    */
  def fWalk(user: Long): IntSupplier = {
    val start = Hashing.hashInput(user, fSeed)
    new VOSHashes.FWalk(start, Hashing.hashInput(user, fSeed + VOSHashes.FStride) - start, m)
  }

  /** Shared-array position touched by edge (user, item): `f_{ψ(i)}(u)`.
    * ψ's range is `[0, k)` by construction, so the index check of [[f]] is
    * not needed.
    */
  def position(user: Long, item: Long): Int = fUnchecked(psi(item), user)
}

object VOSHashes {

  /** Seed distance between `f_j` and `f_{j+1}`. */
  private final val FStride = 0x100000001L

  /** Positions `reduce(mix64(x), m)` for `x = start, start + step, …`. */
  private final class FWalk(start: Long, step: Long, m: Int) extends IntSupplier {
    private var x = start

    def getAsInt: Int = {
      val p = Hashing.reduce(Hashing.mix64(x), m)
      x += step
      p
    }
  }
}
