package repro.stream

import org.scalatest.funsuite.AnyFunSuite

class DynamicStreamGenSpec extends AnyFunSuite {

  private val edges: IndexedSeq[(Long, Long)] =
    (for (u <- 0L until 40L; i <- 0L until 25L if (u + i) % 3 != 0) yield (u, i)).toIndexedSeq

  test("argument validation") {
    intercept[IllegalArgumentException](DynamicStreamGen.generate(edges, d = -0.1))
    intercept[IllegalArgumentException](DynamicStreamGen.generate(edges, r = 1.1))
  }

  test("generated stream is feasible") {
    val s = DynamicStreamGen.generate(edges, seed = 1)
    assert(DynamicStreamGen.assertFeasible(s) == s.length)
  }

  test("d = 0 gives a pure insertion stream of exactly the base edges") {
    val s = DynamicStreamGen.generate(edges, d = 0.0, seed = 2)
    assert(s.length == edges.length)
    assert(s.forall(_.insert))
    assert(s.map(e => (e.user, e.item)).toSet == edges.toSet)
  }

  test("d = 1, r = 0 deletes every edge exactly once") {
    val s = DynamicStreamGen.generate(edges, d = 1.0, r = 0.0, seed = 3)
    assert(s.length == 2 * edges.length)
    assert(s.count(!_.insert) == edges.length)
    // Final state empty.
    val exact = new repro.baselines.ExactSim
    s.foreach(exact.update)
    assert(exact.users.isEmpty)
  }

  test("d = 1, r = 1 re-inserts every edge (final state = base edges)") {
    val s = DynamicStreamGen.generate(edges, d = 1.0, r = 1.0, seed = 4)
    assert(s.length == 3 * edges.length)
    val exact = new repro.baselines.ExactSim
    s.foreach(exact.update)
    val finalEdges = (for (u <- exact.users; i <- exact.itemsOf(u)) yield (u, i)).toSet
    assert(finalEdges == edges.toSet)
  }

  test("deletion fraction near d/(1+d+dr) for d=r=0.5") {
    val bigEdges = (for (u <- 0L until 200L; i <- 0L until 50L) yield (u, i)).toIndexedSeq
    val s = DynamicStreamGen.generate(bigEdges, d = 0.5, r = 0.5, seed = 5)
    val frac = s.count(!_.insert).toDouble / s.length
    assert(math.abs(frac - 0.5 / 1.75) < 0.02, s"deletion fraction $frac")
  }

  test("expected stream length (1+d+dr)|E| within tolerance") {
    val bigEdges = (for (u <- 0L until 200L; i <- 0L until 50L) yield (u, i)).toIndexedSeq
    val s = DynamicStreamGen.generate(bigEdges, d = 0.5, r = 0.5, seed = 6)
    val expected = 1.75 * bigEdges.length
    assert(math.abs(s.length - expected) < 0.05 * expected, s"length ${s.length} vs $expected")
  }

  test("times are 1..n strictly increasing") {
    val s = DynamicStreamGen.generate(edges, seed = 7)
    assert(s.head.time == 1L)
    assert(s.last.time == s.length.toLong)
    s.sliding(2).foreach {
      case Seq(a, b) => assert(b.time == a.time + 1)
      case _         => ()
    }
  }

  test("deterministic in seed") {
    val a = DynamicStreamGen.generate(edges, seed = 8)
    val b = DynamicStreamGen.generate(edges, seed = 8)
    assert(a == b)
    val c = DynamicStreamGen.generate(edges, seed = 9)
    assert(a != c)
  }

  test("deletions are interleaved, not clustered at the end") {
    val s = DynamicStreamGen.generate(edges, d = 0.8, r = 0.3, seed = 10)
    val third = s.length / 3
    val firstThird = s.take(third).count(!_.insert)
    val lastThird  = s.takeRight(third).count(!_.insert)
    assert(firstThird > 0, "no deletions in first third")
    // uniform timestamps → deletions lean later but must not vanish early
    assert(lastThird > 0)
  }

  test("assertFeasible rejects an infeasible stream") {
    val bad = IndexedSeq(
      EdgeEvent(1L, 1L, insert = true, 1),
      EdgeEvent(1L, 1L, insert = true, 2),
    )
    intercept[IllegalArgumentException](DynamicStreamGen.assertFeasible(bad))
    val bad2 = IndexedSeq(EdgeEvent(1L, 1L, insert = false, 1))
    intercept[IllegalArgumentException](DynamicStreamGen.assertFeasible(bad2))
  }

  test("every base edge appears as an insertion at least once") {
    val s = DynamicStreamGen.generate(edges, d = 0.7, r = 0.5, seed = 11)
    val inserted = s.filter(_.insert).map(e => (e.user, e.item)).toSet
    assert(edges.toSet.subsetOf(inserted))
  }

  /** The generator's first algorithm: a boxed tuple per action, a stable
    * sort by timestamp, then an index. The array version must reproduce it.
    */
  private def generateByTuples(edges: IndexedSeq[(Long, Long)], d: Double, r: Double, seed: Long) = {
    val rng     = new java.util.SplittableRandom(seed)
    val actions = IndexedSeq.newBuilder[(Double, Long, Long, Boolean)]
    edges.foreach { case (u, i) =>
      val nActs =
        if (rng.nextDouble() >= d) 1
        else if (rng.nextDouble() >= r) 2
        else 3
      val ts = Array.fill(nActs)(rng.nextDouble())
      java.util.Arrays.sort(ts)
      (0 until nActs).foreach(a => actions += ((ts(a), u, i, a % 2 == 0)))
    }
    actions.result().sortBy(_._1).zipWithIndex
      .map { case ((_, u, i, ins), idx) => EdgeEvent(u, i, ins, idx + 1L) }
  }

  test("same event sequence as the tuple-sorting algorithm on every seed") {
    val big = GraphGen.baseEdges(DatasetSpec.scaled(DatasetSpec.youtube, 0.05))
    for ((d, r) <- Seq((0.5, 0.5), (0.0, 0.5), (1.0, 1.0), (0.9, 0.2)); seed <- 1L to 4L) {
      assert(DynamicStreamGen.generate(edges, d, r, seed) == generateByTuples(edges, d, r, seed), s"d=$d r=$r seed=$seed")
    }
    for (seed <- Seq(7L, 1234L))
      assert(DynamicStreamGen.generate(big, seed = seed) == generateByTuples(big, 0.5, 0.5, seed), s"seed=$seed")
    assert(DynamicStreamGen.generate(IndexedSeq.empty, seed = 1).isEmpty)
  }

  test("the timestamp sort keeps generation order among equal timestamps") {
    val rng   = new java.util.Random(9)
    val times = Array.fill(5000)(rng.nextInt(40).toDouble / 40 + (if (rng.nextInt(9) == 0) 1e-300 else 0.0))
    val keys  = times.map(java.lang.Double.doubleToRawLongBits)
    val order = DynamicStreamGen.sortStable(keys, times.indices.toArray, times.length)
    assert(order.toSeq == times.indices.sortBy(times(_)))
  }
}
