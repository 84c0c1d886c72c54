package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestStreams
import repro.stream.EdgeEvent

class MinHashDynSpec extends AnyFunSuite {

  private def insertAll(mh: MinHashDyn, u: Long, items: Seq[Long]): Unit =
    items.zipWithIndex.foreach { case (i, t) => mh.update(EdgeEvent(u, i, insert = true, t + 1L)) }

  test("rejects non-positive k") {
    intercept[IllegalArgumentException](new MinHashDyn(0))
  }

  test("registers start empty and counters at zero") {
    val mh = new MinHashDyn(8)
    assert(mh.registers(1L).forall(_ == Registers.Empty))
    assert(mh.cardinality(1L) == 0)
  }

  test("insert fills every register with the argmin item") {
    val mh = new MinHashDyn(16, seed = 3)
    insertAll(mh, 1L, 0L until 20L)
    val r = mh.registers(1L)
    (0 until 16).foreach { j =>
      val expect = (0L until 20L).minBy(i => mh.h(j, i))(
        Ordering.fromLessThan((a, b) => java.lang.Long.compareUnsigned(a, b) < 0))
      assert(r(j) == expect, s"register $j")
    }
  }

  test("insertion order does not change registers") {
    val items = (0L until 30L)
    val a = new MinHashDyn(12, seed = 4); insertAll(a, 1L, items)
    val b = new MinHashDyn(12, seed = 4); insertAll(b, 1L, items.reverse)
    assert(a.registers(1L).sameElements(b.registers(1L)))
  }

  test("deleting a non-argmin item leaves registers unchanged (the bias)") {
    val mh = new MinHashDyn(8, seed = 5)
    insertAll(mh, 1L, 0L until 10L)
    val before = mh.registers(1L).clone()
    val notStored = (0L until 10L).find(i => !before.contains(i)).get
    mh.update(EdgeEvent(1L, notStored, insert = false, 100L))
    assert(mh.registers(1L).sameElements(before))
    assert(mh.cardinality(1L) == 9)
  }

  test("deleting the stored argmin empties that register (case 2)") {
    val mh = new MinHashDyn(8, seed = 6)
    insertAll(mh, 1L, 0L until 10L)
    val victim = mh.registers(1L)(0)
    mh.update(EdgeEvent(1L, victim, insert = false, 100L))
    assert(mh.registers(1L)(0) == Registers.Empty)
  }

  test("empty register repopulates on the next insert (case 1 on empty)") {
    val mh = new MinHashDyn(4, seed = 7)
    insertAll(mh, 1L, Seq(5L))
    mh.update(EdgeEvent(1L, 5L, insert = false, 2L))
    assert(mh.registers(1L).forall(_ == Registers.Empty))
    mh.update(EdgeEvent(1L, 9L, insert = true, 3L))
    assert(mh.registers(1L).forall(_ == 9L))
  }

  test("static sets: estimated jaccard close to true jaccard") {
    val mh = new MinHashDyn(512, seed = 8)
    insertAll(mh, 1L, 0L until 100L)      // u: {0..99}
    insertAll(mh, 2L, 50L until 150L)     // v: {50..149}, J = 50/150
    val (_, jHat) = mh.estimatePair(1L, 2L)
    assert(math.abs(jHat - 1.0 / 3) < 0.08, s"jHat=$jHat expected ~0.333")
  }

  test("identical sets give jaccard 1 and s = n") {
    val mh = new MinHashDyn(64, seed = 9)
    insertAll(mh, 1L, 0L until 40L)
    insertAll(mh, 2L, 0L until 40L)
    val (sHat, jHat) = mh.estimatePair(1L, 2L)
    assert(jHat == 1.0)
    assert(math.abs(sHat - 40.0) < 1e-9)
  }

  test("disjoint sets give jaccard ~0") {
    val mh = new MinHashDyn(256, seed = 10)
    insertAll(mh, 1L, 0L until 50L)
    insertAll(mh, 2L, 1000L until 1050L)
    val (sHat, jHat) = mh.estimatePair(1L, 2L)
    assert(jHat < 0.03 && sHat < 3)
  }

  test("s-hat formula: s = J(nu+nv)/(J+1)") {
    val mh = new MinHashDyn(128, seed = 11)
    insertAll(mh, 1L, 0L until 60L)
    insertAll(mh, 2L, 30L until 90L)
    val (sHat, jHat) = mh.estimatePair(1L, 2L)
    assert(math.abs(sHat - jHat * 120 / (jHat + 1)) < 1e-9)
  }

  test("deletion bias: churn drives the estimate below the true jaccard") {
    // Both users keep {0..49}; u additionally subscribes and then
    // unsubscribes {100..199}. True final sets are identical (J = 1), but
    // emptied registers depress the MinHash estimate — the paper's § III
    // observation that motivates VOS.
    val mh = new MinHashDyn(256, seed = 12)
    var t = 1L
    TestStreams.withChurn(1L, items = 0L until 50L, churn = 100L until 200L)
      .foreach { e => mh.update(e.copy(time = t)); t += 1 }
    insertAll(mh, 2L, 0L until 50L)
    val (_, jHat) = mh.estimatePair(1L, 2L)
    assert(mh.cardinality(1L) == 50 && mh.cardinality(2L) == 50)
    assert(jHat < 0.75, s"expected depressed estimate, got $jHat (true J = 1)")
  }

  test("estimate for unseen users is zero") {
    val mh = new MinHashDyn(16)
    assert(mh.estimatePair(98L, 99L) == ((0.0, 0.0)))
  }

  test("counters are per user and go back to zero on full unsubscription") {
    val mh = new MinHashDyn(4)
    insertAll(mh, 1L, Seq(1L, 2L))
    mh.update(EdgeEvent(1L, 1L, insert = false, 10L))
    mh.update(EdgeEvent(1L, 2L, insert = false, 11L))
    assert(mh.cardinality(1L) == 0)
  }

  test("hash h is deterministic and register-dependent") {
    val mh = new MinHashDyn(4, seed = 1)
    assert(mh.h(0, 5L) == mh.h(0, 5L))
    assert(mh.h(0, 5L) != mh.h(1, 5L))
  }
}
