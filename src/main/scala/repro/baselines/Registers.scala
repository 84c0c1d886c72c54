package repro.baselines

/** What MinHash and RP share about a user's k registers: the ∅ value and
  * the count of registers two users agree on.
  */
object Registers {

  /** ∅ register sentinel (item ids are nonnegative). */
  final val Empty = -1L

  /** `Σ_j 1(a_j = b_j ≠ ∅)` over two register vectors of equal length. */
  def matches(a: Array[Long], b: Array[Long]): Int = {
    var n = 0
    var j = 0
    while (j < a.length) {
      if (a(j) != Empty && a(j) == b(j)) n += 1
      j += 1
    }
    n
  }
}
