package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.stream.EdgeEvent

class RandomPairingSpec extends AnyFunSuite {

  private def insertAll(rp: RandomPairing, u: Long, items: Seq[Long]): Unit =
    items.zipWithIndex.foreach { case (i, t) => rp.update(EdgeEvent(u, i, insert = true, t + 1L)) }

  private def deleteAll(rp: RandomPairing, u: Long, items: Seq[Long]): Unit =
    items.zipWithIndex.foreach { case (i, t) => rp.update(EdgeEvent(u, i, insert = false, t + 1000L)) }

  test("rejects non-positive k") {
    intercept[IllegalArgumentException](new RandomPairing(0))
  }

  test("samples start empty") {
    val rp = new RandomPairing(8)
    assert(rp.samples(1L).forall(_ == Registers.Empty))
  }

  test("first insert fills every sampler") {
    val rp = new RandomPairing(8, seed = 1)
    insertAll(rp, 1L, Seq(42L))
    assert(rp.samples(1L).forall(_ == 42L))
    assert(rp.cardinality(1L) == 1)
  }

  test("samples always hold a currently-present item") {
    val rp = new RandomPairing(16, seed = 2)
    insertAll(rp, 1L, 0L until 30L)
    deleteAll(rp, 1L, 5L until 15L)
    val present = ((0L until 5L) ++ (15L until 30L)).toSet
    rp.samples(1L).foreach(s => assert(s == Registers.Empty || present.contains(s), s"stale sample $s"))
  }

  test("deleting the sampled item empties that sampler") {
    val rp = new RandomPairing(4, seed = 3)
    insertAll(rp, 1L, Seq(7L))
    deleteAll(rp, 1L, Seq(7L))
    assert(rp.samples(1L).forall(_ == Registers.Empty))
    assert(rp.cardinality(1L) == 0)
  }

  test("compensation: deleted-then-reinserted keeps samplers usable") {
    val rp = new RandomPairing(8, seed = 4)
    insertAll(rp, 1L, Seq(1L, 2L, 3L))
    deleteAll(rp, 1L, Seq(1L, 2L, 3L))
    insertAll(rp, 1L, Seq(10L))
    // After full churn the only present item is 10; samplers that refilled
    // must hold it.
    rp.samples(1L).foreach(s => assert(s == Registers.Empty || s == 10L))
    assert(rp.cardinality(1L) == 1)
  }

  test("sampler is (approximately) uniform over a static set") {
    // One sampler observed across many independent RP instances.
    val n = 10
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    (0 until 4000).foreach { trial =>
      val rp = new RandomPairing(1, seed = trial.toLong)
      insertAll(rp, 1L, 0L until n.toLong)
      counts(rp.samples(1L)(0)) += 1
    }
    val expected = 4000.0 / n
    counts.values.foreach { c =>
      assert(math.abs(c - expected) < 5 * math.sqrt(expected), s"count $c vs $expected")
    }
    assert(counts.keySet == (0L until n.toLong).toSet)
  }

  test("uniformity survives deletions (RP's defining property)") {
    // Insert {0..19}, delete {0..9}: the sample must be uniform over the
    // 10 survivors — this is exactly what the biased MinHash extension
    // fails to do.
    val counts = scala.collection.mutable.Map.empty[Long, Int].withDefaultValue(0)
    val trials = 4000
    (0 until trials).foreach { trial =>
      val rp = new RandomPairing(1, seed = 10000L + trial)
      insertAll(rp, 1L, 0L until 20L)
      deleteAll(rp, 1L, 0L until 10L)
      // Re-insert churn to let compensation refill empty samplers.
      insertAll(rp, 1L, 100L until 110L)
      deleteAll(rp, 1L, 100L until 110L)
      val s = rp.samples(1L)(0)
      if (s != Registers.Empty) counts(s) += 1
    }
    assert(counts.keySet.subsetOf((10L until 20L).toSet), s"stale items sampled: ${counts.keySet}")
    // ~50% of samplers lose their sample to the deletions and may end the
    // churn empty again — only samplers that kept/regained one count here.
    val total = counts.values.sum
    assert(total > trials * 2 / 5, s"too many empty samplers: $total/$trials")
    val expected = total / 10.0
    counts.values.foreach(c =>
      assert(math.abs(c - expected) < 6 * math.sqrt(expected), s"count $c vs $expected"))
  }

  test("identical singleton sets match with probability 1") {
    val rp = new RandomPairing(32, seed = 6)
    insertAll(rp, 1L, Seq(5L))
    insertAll(rp, 2L, Seq(5L))
    val (sHat, jHat) = rp.estimatePair(1L, 2L)
    assert(sHat == 1.0 && jHat == 1.0)
  }

  test("disjoint sets estimate zero") {
    val rp = new RandomPairing(64, seed = 7)
    insertAll(rp, 1L, 0L until 20L)
    insertAll(rp, 2L, 100L until 120L)
    assert(rp.estimatePair(1L, 2L) == ((0.0, 0.0)))
  }

  test("estimator is unbiased over repeated runs (identical sets)") {
    // nu = nv = n, s = n → per-slot match prob = 1/n, E[ŝ] = n·n·(1/n)... /1 = n...
    // Concretely: E[matches] = k·s/(nu·nv) = k/n; ŝ = nu·nv·matches/k.
    val n = 8
    val k = 64
    var sum = 0.0
    val trials = 400
    (0 until trials).foreach { trial =>
      val rp = new RandomPairing(k, seed = 500L + trial)
      insertAll(rp, 1L, 0L until n.toLong)
      insertAll(rp, 2L, 0L until n.toLong)
      sum += rp.estimatePair(1L, 2L)._1
    }
    val mean = sum / trials
    assert(math.abs(mean - n) < 1.5, s"mean ŝ=$mean expected ~$n (unbiased)")
  }

  test("estimate clamps s to min(nu, nv)") {
    val rp = new RandomPairing(2, seed = 8)
    insertAll(rp, 1L, Seq(1L))
    insertAll(rp, 2L, Seq(1L))
    val (sHat, _) = rp.estimatePair(1L, 2L)
    assert(sHat <= 1.0)
  }

  test("estimate for unseen users is zero") {
    val rp = new RandomPairing(4)
    assert(rp.estimatePair(50L, 51L) == ((0.0, 0.0)))
  }

  test("high variance at small k on large sets (why RP loses in the paper)") {
    // With n = 100 and k = 16, per-slot match prob is 1/100: most runs see
    // zero matches (ŝ = 0), occasionally ŝ = nu·nv/k = 625 — huge spread.
    val estimates = (0 until 60).map { trial =>
      val rp = new RandomPairing(16, seed = 900L + trial)
      insertAll(rp, 1L, 0L until 100L)
      insertAll(rp, 2L, 0L until 100L)
      rp.estimatePair(1L, 2L)._1
    }
    assert(estimates.exists(_ == 0.0), "expected some all-miss runs")
    assert(estimates.max > 50, "expected some large-jump estimates")
  }
}
