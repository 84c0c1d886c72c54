package repro.core

import java.util.function.IntSupplier

/** Compact mutable bit array backed by `Long` words.
  *
  * This is the storage substrate for VOS: the shared array `A` (m bits) and
  * each rebuilt per-user odd sketch are instances of this class. It supports
  * the operations VOS needs, each O(1) or linear in its size:
  *
  *   - `flip(pos)` — XOR a single bit, returning the new bit value (VOS's
  *     per-edge update; the ones-count is maintained incrementally so the
  *     1-bit fraction β is O(1) to read);
  *   - `flipAll(positions, n)` — a block of such flips in one tight loop
  *     (VOS applies its queued edges this way);
  *   - `xorInPlace(other)` — bitwise XOR merge (partial sketches built on
  *     different partitions combine associatively/commutatively);
  *   - `onesCount` — popcount, maintained incrementally;
  *   - `gather(positions, n)` — read n scattered bits into a new n-bit
  *     array (rebuilding one user's odd sketch from `A`).
  *
  * Every change to the bits goes through `flip`, `flipAll` or
  * `xorInPlace`, which bump [[mutationCount]]; a reader that caches
  * something derived from the bits (`VOSSketch`'s rebuilt odd sketches)
  * keys it on that count.
  *
  * Not thread-safe; each Spark partition owns its private instance.
  *
  * @param numBits logical length in bits (positions are `0 until numBits`)
  */
final class BitArray(val numBits: Int) extends Serializable {
  require(numBits > 0, s"numBits must be positive, got $numBits")

  private val words = new Array[Long]((numBits + 63) >>> 6)
  private var ones: Long = 0L

  /** Changes made to this instance so far; not serialized, so a
    * deserialized copy starts again at 0.
    */
  @transient private var mutations: Long = 0L

  /** Number of 1-bits currently set. */
  def onesCount: Long = ones

  /** Number of bit flips and `xorInPlace` calls on this instance so far:
    * equal counts mean unchanged bits.
    */
  def mutationCount: Long = mutations

  /** Bytes of the word array (its heap footprint without headers). */
  def wordBytes: Long = 8L * words.length

  /** Fraction of 1-bits (β in the paper when this is the shared array A). */
  def onesFraction: Double = ones.toDouble / numBits

  /** Read bit at `pos` (0 or 1). */
  def get(pos: Int): Int = {
    require(pos >= 0 && pos < numBits, s"bit position $pos out of [0,$numBits)")
    ((words(pos >>> 6) >>> (pos & 63)) & 1L).toInt
  }

  /** XOR bit at `pos` with 1; returns the new bit value. O(1). */
  def flip(pos: Int): Int = {
    require(pos >= 0 && pos < numBits, s"bit position $pos out of [0,$numBits)")
    mutations += 1
    flipBit(pos)
  }

  /** Flip the bits at `positions(0 until n)` in turn, as `n` calls of
    * [[flip]] would. Throws at the first position outside `[0, numBits)`,
    * with the positions before it flipped.
    */
  def flipAll(positions: Array[Int], n: Int): Unit = {
    mutations += n
    var i = 0
    while (i < n) {
      val p = positions(i)
      if ((p | (numBits - 1 - p)) < 0) outOfRange(p)
      flipBit(p)
      i += 1
    }
  }

  /** Flip the bit at `pos` (in range) and return its new value. The
    * ones-count moves by +1 or −1 without a branch on the loaded word.
    */
  private def flipBit(pos: Int): Int = {
    val w   = pos >>> 6
    val now = words(w) ^ (1L << (pos & 63))
    words(w) = now
    val bit = ((now >>> (pos & 63)) & 1L).toInt
    ones += 2 * bit - 1
    bit
  }

  /** XOR `other` into this array in place. Arrays must have equal length. */
  def xorInPlace(other: BitArray): Unit = {
    require(other.numBits == numBits,
      s"length mismatch: $numBits vs ${other.numBits}")
    mutations += 1
    var i = 0
    var count = 0L
    while (i < words.length) {
      words(i) ^= other.words(i)
      count += java.lang.Long.bitCount(words(i))
      i += 1
    }
    ones = count
  }

  /** The bits at the next `n` positions of `positions`, packed into a new
    * `n`-bit array: its bit j is this array's bit at the j-th position.
    * Throws if one of them lies outside `[0, numBits)`.
    */
  def gather(positions: IntSupplier, n: Int): BitArray = {
    val out = new BitArray(n)
    var c   = 0L
    var j   = 0
    while (j < n) {
      // One output word at a time, built in a register.
      val end = math.min(n, j + 64)
      var w   = 0L
      var b   = 0
      while (j < end) {
        val p = positions.getAsInt
        if ((p | (numBits - 1 - p)) < 0) outOfRange(p)
        w |= ((words(p >>> 6) >>> (p & 63)) & 1L) << b
        b += 1
        j += 1
      }
      out.words((j - 1) >>> 6) = w
      c += java.lang.Long.bitCount(w)
    }
    out.ones = c
    out
  }

  private def outOfRange(pos: Int): Nothing =
    throw new IllegalArgumentException(s"bit position $pos out of [0,$numBits)")

  /** Number of positions where this and `other` differ (Hamming distance). */
  def hammingDistance(other: BitArray): Long = {
    require(other.numBits == numBits,
      s"length mismatch: $numBits vs ${other.numBits}")
    var i = 0
    var d = 0L
    while (i < words.length) {
      d += java.lang.Long.bitCount(words(i) ^ other.words(i))
      i += 1
    }
    d
  }

  /** Deep copy. */
  def copy(): BitArray = {
    val b = new BitArray(numBits)
    System.arraycopy(words, 0, b.words, 0, words.length)
    b.ones = ones
    b
  }

  /** Serialize to bytes (words little-endian); pairs with [[BitArray.fromBytes]]. */
  def toBytes: Array[Byte] = {
    val buf = java.nio.ByteBuffer.allocate(words.length * 8)
    buf.order(java.nio.ByteOrder.LITTLE_ENDIAN)
    words.foreach(buf.putLong)
    buf.array()
  }

  override def equals(o: Any): Boolean = o match {
    case b: BitArray => b.numBits == numBits && java.util.Arrays.equals(b.words, words)
    case _           => false
  }
  override def hashCode(): Int = 31 * numBits + java.util.Arrays.hashCode(words)
  override def toString: String = s"BitArray($numBits bits, $ones ones)"
}

object BitArray {

  /** Rebuild from [[BitArray#toBytes]] output. */
  def fromBytes(numBits: Int, bytes: Array[Byte]): BitArray = {
    val b = new BitArray(numBits)
    require(bytes.length == b.words.length * 8,
      s"byte length ${bytes.length} does not match $numBits bits")
    val buf = java.nio.ByteBuffer.wrap(bytes)
    buf.order(java.nio.ByteOrder.LITTLE_ENDIAN)
    var i = 0
    var count = 0L
    while (i < b.words.length) {
      b.words(i) = buf.getLong()
      count += java.lang.Long.bitCount(b.words(i))
      i += 1
    }
    b.ones = count
    b
  }
}
