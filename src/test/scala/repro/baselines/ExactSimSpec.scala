package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestStreams
import repro.stream.EdgeEvent

class ExactSimSpec extends AnyFunSuite {

  test("empty state") {
    val e = new ExactSim
    assert(e.cardinality(1L) == 0)
    assert(e.commonItems(1L, 2L) == 0)
    assert(e.estimatePair(1L, 2L)._2 == 0.0)
    assert(e.users.isEmpty)
  }

  test("inserts accumulate; deletes remove") {
    val e = new ExactSim
    e.update(EdgeEvent(1L, 10L, insert = true, 1))
    e.update(EdgeEvent(1L, 11L, insert = true, 2))
    e.update(EdgeEvent(1L, 10L, insert = false, 3))
    // Users 2 and 3 hold the kept and the deleted item.
    e.update(EdgeEvent(2L, 11L, insert = true, 4))
    e.update(EdgeEvent(3L, 10L, insert = true, 5))
    assert(e.cardinality(1L) == 1)
    assert(e.commonItems(1L, 2L) == 1 && e.commonItems(1L, 3L) == 0)
  }

  test("duplicate insert rejected (feasibility guard)") {
    val e = new ExactSim
    e.update(EdgeEvent(1L, 10L, insert = true, 1))
    intercept[IllegalArgumentException](e.update(EdgeEvent(1L, 10L, insert = true, 2)))
  }

  test("delete of absent item rejected (feasibility guard)") {
    val e = new ExactSim
    intercept[IllegalArgumentException](e.update(EdgeEvent(1L, 10L, insert = false, 1)))
  }

  test("commonItems and jaccard on overlapping sets") {
    val e = new ExactSim
    (0L until 10L).foreach(i => e.update(EdgeEvent(1L, i, insert = true, i + 1)))
    (5L until 15L).foreach(i => e.update(EdgeEvent(2L, i, insert = true, i + 100)))
    assert(e.commonItems(1L, 2L) == 5)
    assert(e.estimatePair(1L, 2L)._2 == 5.0 / 15.0)
    assert(e.commonItems(2L, 1L) == 5) // symmetric
  }

  test("estimatePair returns exact values") {
    val e = new ExactSim
    e.update(EdgeEvent(1L, 1L, insert = true, 1))
    e.update(EdgeEvent(2L, 1L, insert = true, 2))
    assert(e.estimatePair(1L, 2L) == ((1.0, 1.0)))
  }

  test("users lists only users with non-empty sets") {
    val e = new ExactSim
    e.update(EdgeEvent(1L, 1L, insert = true, 1))
    e.update(EdgeEvent(2L, 2L, insert = true, 2))
    e.update(EdgeEvent(2L, 2L, insert = false, 3))
    assert(e.users.toSet == Set(1L))
  }

  test("matches brute-force reconstruction on a random stream") {
    val events = TestStreams.random(10, 30, 500, seed = 42)
    val e = new ExactSim
    events.foreach(e.update)
    val sets = TestStreams.finalSets(events)
    assert(e.users.toSet == sets.keySet)
    for (u <- 0L until 10L) assert(e.cardinality(u) == sets(u).size.toLong, s"user $u")
    for (u <- 0L until 10L; v <- 0L until 10L)
      assert(e.commonItems(u, v) == (sets(u) & sets(v)).size.toLong)
  }

  test("jaccard of two empty sets is 0 (not NaN)") {
    val e = new ExactSim
    assert(!e.estimatePair(1L, 2L)._2.isNaN)
  }

  test("cardinality drops to zero after full unsubscription") {
    val e = new ExactSim
    e.update(EdgeEvent(5L, 1L, insert = true, 1))
    e.update(EdgeEvent(5L, 1L, insert = false, 2))
    assert(e.cardinality(5L) == 0)
    assert(e.users.toSet.isEmpty)
  }
}
