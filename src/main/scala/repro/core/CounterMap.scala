package repro.core

/** Exact per-user counters `n_u`, the one counter store of every method.
  *
  * An open-addressing `Long → Long` map over a single primitive
  * `Array[Long]`: slot `i` holds its key at `2·i` and its count at
  * `2·i + 1`, so a lookup touches one cache line and an update allocates
  * nothing. A count of 0 marks an empty slot, which is why a key whose
  * count returns to 0 is removed. Collisions probe linearly from the key's
  * Fibonacci-hashed home slot; removal shifts the rest of the probe run
  * back into the hole (Knuth, TAOCP vol. 3 § 6.4, Algorithm R), so no
  * tombstones accumulate. The table doubles before it is more than 3/4
  * full.
  *
  * Counts may be negative: a partial sketch built over one partition of a
  * stream sees deletes whose inserts went to another partition, and only
  * the merged sum is the true `n_u`.
  *
  * Equality and `hashCode` are over the (key, count) contents, not the slot
  * layout, so maps reached by different histories compare equal.
  */
final class CounterMap private (
    private var slots: Array[Long],
    private var shift: Int,
    private var used: Int,
) extends Serializable {

  def this() = this(new Array[Long](2 * CounterMap.InitialSlots), 64 - CounterMap.InitialBits, 0)

  /** Number of keys with a nonzero count. */
  def size: Int = used

  /** Bytes of the slot array (its heap footprint without headers). */
  def slotBytes: Long = 8L * slots.length

  /** Array index of `key`'s home slot. */
  private def home(key: Long): Int = (((key * CounterMap.Phi) >>> shift).toInt) << 1

  /** Count of `key`, 0 if absent. */
  def get(key: Long): Long = {
    val s    = slots
    val wrap = s.length - 1
    var p    = home(key)
    while (s(p + 1) != 0L) {
      if (s(p) == key) return s(p + 1)
      p = (p + 2) & wrap
    }
    0L
  }

  /** Add `delta` to the count of `key`; a count that reaches 0 is removed. */
  def add(key: Long, delta: Long): Unit = {
    val s    = slots
    val wrap = s.length - 1
    var p    = home(key)
    while (s(p + 1) != 0L) {
      if (s(p) == key) {
        val next = s(p + 1) + delta
        if (next == 0L) removeAt(p) else s(p + 1) = next
        return
      }
      p = (p + 2) & wrap
    }
    if (delta != 0L) {
      if (4L * (used + 1) > 3L * (s.length >>> 1)) { grow(); place(key, delta) }
      else { s(p) = key; s(p + 1) = delta }
      used += 1
    }
  }

  /** Add every count of `other` into this map (the counters' merge). */
  def addAll(other: CounterMap): Unit = other.foreach(add)

  /** Apply `f(key, count)` to every entry, in slot order. */
  private def foreach(f: (Long, Long) => Unit): Unit = {
    val s = slots
    var p = 0
    while (p < s.length) {
      if (s(p + 1) != 0L) f(s(p), s(p + 1))
      p += 2
    }
  }

  /** The contents as an immutable map (for tests and diagnostics). */
  def toMap: Map[Long, Long] = {
    val b = Map.newBuilder[Long, Long]
    foreach((k, n) => b += k -> n)
    b.result()
  }

  override def equals(that: Any): Boolean = that match {
    case o: CounterMap =>
      o.used == used && {
        val s = slots
        var p = 0
        while (p < s.length && (s(p + 1) == 0L || o.get(s(p)) == s(p + 1))) p += 2
        p == s.length
      }
    case _ => false
  }

  override def hashCode: Int = {
    val s = slots
    var h = 0
    var p = 0
    while (p < s.length) {
      if (s(p + 1) != 0L) h += java.lang.Long.hashCode(s(p) * CounterMap.Phi) ^ java.lang.Long.hashCode(s(p + 1))
      p += 2
    }
    h
  }

  override def toString: String = s"CounterMap($used keys, ${slots.length >>> 1} slots)"

  /** Backward-shift deletion of the entry at array index `at`: each later
    * entry of the probe run moves into the hole when the hole lies on its
    * path from its home slot, until an empty slot ends the run.
    */
  private def removeAt(at: Int): Unit = {
    val s    = slots
    val wrap = s.length - 1
    var hole = at
    var p    = (at + 2) & wrap
    while (s(p + 1) != 0L) {
      if (((p - home(s(p))) & wrap) >= ((p - hole) & wrap)) {
        s(hole) = s(p)
        s(hole + 1) = s(p + 1)
        hole = p
      }
      p = (p + 2) & wrap
    }
    s(hole) = 0L
    s(hole + 1) = 0L
    used -= 1
  }

  /** Double the table and re-place every entry. */
  private def grow(): Unit = {
    val old = slots
    require(old.length <= CounterMap.MaxArrayLength / 2, s"counter store full at $used keys")
    slots = new Array[Long](2 * old.length)
    shift -= 1
    var p = 0
    while (p < old.length) {
      if (old(p + 1) != 0L) place(old(p), old(p + 1))
      p += 2
    }
  }

  /** Store an absent key in the first empty slot of its probe run. */
  private def place(key: Long, count: Long): Unit = {
    val s    = slots
    val wrap = s.length - 1
    var p    = home(key)
    while (s(p + 1) != 0L) p = (p + 2) & wrap
    s(p) = key
    s(p + 1) = count
  }
}

object CounterMap {

  /** 2⁶⁴/φ, odd: multiplying by it and keeping the top bits spreads
    * consecutive user ids evenly over the table (Fibonacci hashing).
    */
  private final val Phi = 0x9E3779B97F4A7C15L

  private final val InitialBits  = 4
  private final val InitialSlots = 1 << InitialBits

  /** Largest slot array: 2³⁰ longs, 2²⁹ slots. */
  private final val MaxArrayLength = 1 << 30
}
