package repro.baselines

import scala.collection.mutable
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestStreams
import repro.core.{Hashing, SimilaritySketch, UserCounters}
import repro.stream.EdgeEvent

/** OPH's first store: per user, a boxed map from bin to item. [[OPHDyn]]
  * must reproduce its registers and estimates exactly.
  */
private final class NestedMapOPH(val k: Int, val seed: Long = 11L)
    extends SimilaritySketch with UserCounters {
  private val regs = mutable.HashMap.empty[Long, mutable.HashMap[Int, Long]]

  override def name: String = "OPH (nested maps)"

  def h(item: Long): Long = Hashing.hash64(item, seed)

  def bin(item: Long): Int = Hashing.reduce(h(item), k)

  override def update(e: EdgeEvent): Unit = {
    val r = regs.getOrElseUpdate(e.user, mutable.HashMap.empty)
    val j = bin(e.item)
    if (e.insert) {
      r.get(j) match {
        case Some(cur)
            if java.lang.Long.compareUnsigned(h(e.item), h(cur)) >= 0 => ()
        case _ => r.update(j, e.item)
      }
    } else {
      if (r.get(j).contains(e.item)) r.remove(j)
    }
    bumpCounter(e.user, e.insert)
  }

  def registers(user: Long): Array[Long] = {
    val r = regs.getOrElse(user, mutable.HashMap.empty[Int, Long])
    Array.tabulate(k)(j => r.getOrElse(j, Registers.Empty))
  }

  override def estimatePair(u: Long, v: Long): (Double, Double) = {
    val ru = regs.getOrElse(u, mutable.HashMap.empty[Int, Long])
    val rv = regs.getOrElse(v, mutable.HashMap.empty[Int, Long])
    var num = 0
    var den = 0
    ru.foreach { case (j, a) =>
      den += 1
      if (rv.get(j).contains(a)) num += 1
    }
    rv.keysIterator.foreach(j => if (!ru.contains(j)) den += 1)
    val jac = if (den == 0) 0.0 else num.toDouble / den
    val s   = jac * (cardinality(u) + cardinality(v)) / (jac + 1.0)
    (s, jac)
  }
}

class OPHDynSpec extends AnyFunSuite {

  private def insertAll(o: OPHDyn, u: Long, items: Seq[Long]): Unit =
    items.zipWithIndex.foreach { case (i, t) => o.update(EdgeEvent(u, i, insert = true, t + 1L)) }

  test("rejects non-positive k") {
    intercept[IllegalArgumentException](new OPHDyn(0))
  }

  test("bin is stable and in range") {
    val o = new OPHDyn(16, seed = 2)
    (0L until 2000L).foreach { i =>
      val b = o.bin(i)
      assert(b >= 0 && b < 16)
      assert(b == o.bin(i))
    }
  }

  test("bins are roughly balanced") {
    val o = new OPHDyn(8, seed = 3)
    val counts = (0L until 8000L).map(o.bin).groupBy(identity).view.mapValues(_.size)
    counts.values.foreach(c => assert(c > 700 && c < 1300, s"bin load $c"))
  }

  test("register keeps the min-hash item of its bin") {
    val o = new OPHDyn(8, seed = 4)
    val items = 0L until 200L
    insertAll(o, 1L, items)
    val r = o.registers(1L)
    (0 until 8).foreach { j =>
      val inBin = items.filter(i => o.bin(i) == j)
      if (inBin.nonEmpty) {
        val expect = inBin.minBy(o.h)(
          Ordering.fromLessThan((a, b) => java.lang.Long.compareUnsigned(a, b) < 0))
        assert(r(j) == expect, s"bin $j")
      } else assert(r(j) == Registers.Empty)
    }
  }

  test("update touches only the item's own bin") {
    val o = new OPHDyn(16, seed = 5)
    insertAll(o, 1L, 0L until 50L)
    val before = o.registers(1L).clone()
    val item = 500L
    val j = o.bin(item)
    o.update(EdgeEvent(1L, item, insert = true, 100L))
    val after = o.registers(1L)
    (0 until 16).foreach(b => if (b != j) assert(after(b) == before(b)))
  }

  test("deleting the stored item empties its bin; others unaffected") {
    val o = new OPHDyn(8, seed = 6)
    insertAll(o, 1L, 0L until 50L)
    val r = o.registers(1L)
    val j = r.indexWhere(_ != Registers.Empty)
    val victim = r(j)
    o.update(EdgeEvent(1L, victim, insert = false, 100L))
    assert(o.registers(1L)(j) == Registers.Empty)
  }

  test("deleting a non-stored item is a no-op on registers (the bias)") {
    val o = new OPHDyn(4, seed = 7)
    insertAll(o, 1L, 0L until 40L)
    val before = o.registers(1L).clone()
    val notStored = (0L until 40L).find(i => !before.contains(i)).get
    o.update(EdgeEvent(1L, notStored, insert = false, 100L))
    assert(o.registers(1L).sameElements(before))
  }

  test("static sets: estimated jaccard close to true jaccard") {
    val o = new OPHDyn(512, seed = 8)
    insertAll(o, 1L, 0L until 300L)
    insertAll(o, 2L, 150L until 450L)
    val (_, jHat) = o.estimatePair(1L, 2L) // true J = 150/450 = 1/3
    assert(math.abs(jHat - 1.0 / 3) < 0.08, s"jHat=$jHat")
  }

  test("identical sets estimate jaccard 1") {
    val o = new OPHDyn(64, seed = 9)
    insertAll(o, 1L, 0L until 100L)
    insertAll(o, 2L, 0L until 100L)
    assert(o.estimatePair(1L, 2L)._2 == 1.0)
  }

  test("disjoint sets estimate jaccard ~0") {
    val o = new OPHDyn(256, seed = 10)
    insertAll(o, 1L, 0L until 100L)
    insertAll(o, 2L, 10000L until 10100L)
    assert(o.estimatePair(1L, 2L)._2 < 0.03)
  }

  test("estimator denominator counts only jointly-nonempty-union bins") {
    val o = new OPHDyn(1024, seed = 11)
    insertAll(o, 1L, 0L until 5L)
    insertAll(o, 2L, 0L until 5L)
    // Only ≤5 bins occupied out of 1024; identical small sets must still
    // estimate J = 1 because empty-empty bins are excluded.
    assert(o.estimatePair(1L, 2L)._2 == 1.0)
  }

  test("deletion bias: churn depresses the estimate (paper § III)") {
    val o = new OPHDyn(256, seed = 12)
    TestStreams.withChurn(1L, items = 0L until 50L, churn = 100L until 200L).foreach(o.update)
    insertAll(o, 2L, 0L until 50L)
    val (_, jHat) = o.estimatePair(1L, 2L) // true J = 1
    assert(jHat < 0.8, s"expected depressed estimate, got $jHat")
  }

  test("estimate for unseen users is zero") {
    val o = new OPHDyn(8)
    assert(o.estimatePair(1L, 2L) == ((0.0, 0.0)))
  }

  test("counters track cardinality through churn") {
    val o = new OPHDyn(8)
    TestStreams.withChurn(3L, items = 0L until 7L, churn = 50L until 60L).foreach(o.update)
    assert(o.cardinality(3L) == 7)
  }

  test("registers and estimates equal the nested-map store's on any stream") {
    val gen = for {
      k     <- Gen.oneOf(1, 3, 64, 1000)
      // First of 8 consecutive user ids: zero, negative, large, and the
      // extremes whose bin keys u·k + j still fit in a Long.
      first <- Gen.oneOf(0L, -5L, -(1L << 40), 1L << 50, Long.MinValue / k, (Long.MaxValue - k) / k - 8)
      seed  <- Gen.choose(0L, 100000L)
      len   <- Gen.choose(0, 400)
      items <- Gen.choose(5, 2000)
      churn <- Gen.oneOf(false, true)
    } yield {
      val events =
        if (churn)
          (0 until 8).flatMap { u =>
            val kept = (u * 3 until u * 3 + 20).map(_.toLong)
            TestStreams.withChurn(u.toLong, kept, churn = (1000L + u) until (1000L + u + len / 8))
          }
        else TestStreams.random(numUsers = 8, numItems = items, length = len, seed = seed)
      (k, first, events.map(e => e.copy(user = first + e.user)))
    }
    val check = Prop.forAll(gen) { case (k, first, events) =>
      val got  = new OPHDyn(k)
      val want = new NestedMapOPH(k)
      def same(): Boolean = (first until first + 8).forall { u =>
        got.registers(u).sameElements(want.registers(u)) &&
        (first until first + 8).forall { v =>
          val (gs, gj) = got.estimatePair(u, v)
          val (ws, wj) = want.estimatePair(u, v)
          java.lang.Double.doubleToRawLongBits(gs) == java.lang.Double.doubleToRawLongBits(ws) &&
          java.lang.Double.doubleToRawLongBits(gj) == java.lang.Double.doubleToRawLongBits(wj)
        }
      }
      events.zipWithIndex.forall { case (e, t) =>
        got.update(e); want.update(e)
        (t + 1) % 100 != 0 || same()
      } && same()
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), check)
    assert(res.passed, res.status.toString)
  }

  test("a user whose bin keys would overflow a Long throws instead of sharing another's bins") {
    val o = new OPHDyn(1000)
    intercept[ArithmeticException](o.update(EdgeEvent(Long.MaxValue / 1000 + 1, 5L, insert = true, 1L)))
    intercept[ArithmeticException](o.update(EdgeEvent(Long.MinValue / 1000 - 1, 5L, insert = true, 1L)))
    assert(o.cardinality(Long.MaxValue / 1000 + 1) == 0)
    // u·k fits but u·k + j does not for the last bins.
    intercept[ArithmeticException](new OPHDyn(3).registers(Long.MaxValue / 3))
    intercept[ArithmeticException](new OPHDyn(3).estimatePair(0L, Long.MaxValue / 3))
  }
}
