package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class HashingSpec extends AnyFunSuite {

  private def check(prop: Prop, min: Int = 80): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  test("mix64 is deterministic") {
    assert(Hashing.mix64(12345L) == Hashing.mix64(12345L))
  }

  test("mix64 is a bijection on sampled inputs (no collisions)") {
    val xs = (0L until 20000L).map(Hashing.mix64)
    assert(xs.distinct.size == xs.size)
  }

  test("mix64 avalanches: flipping one input bit flips ~half the output bits") {
    val flips = (0 until 200).map { i =>
      val x = Hashing.mix64(i.toLong * 7919)
      val y = Hashing.mix64(i.toLong * 7919 ^ 1L)
      java.lang.Long.bitCount(x ^ y)
    }
    val mean = flips.sum.toDouble / flips.size
    assert(mean > 24 && mean < 40, s"mean flipped bits $mean far from 32")
  }

  test("hash64 differs across seeds") {
    val a = (0L until 1000L).map(Hashing.hash64(_, 1))
    val b = (0L until 1000L).map(Hashing.hash64(_, 2))
    assert(a != b)
    // Agreement on a few positions is fine; wholesale equality is not.
    assert(a.zip(b).count { case (x, y) => x == y } < 5)
  }

  test("hash64 is deterministic per (key, seed)") {
    assert(Hashing.hash64(42L, 7L) == Hashing.hash64(42L, 7L))
  }

  test("reduce of a seeded hash stays in range") {
    val rng = new java.util.SplittableRandom(3)
    (0 until 5000).foreach { _ =>
      val n = 1 + rng.nextInt(1000)
      val v = Hashing.reduce(Hashing.hash64(rng.nextLong(), rng.nextLong()), n)
      assert(v >= 0 && v < n, s"$v out of [0,$n)")
    }
  }

  test("reduce of a seeded hash is roughly uniform (chi-square bound, 16 buckets)") {
    val n = 16
    val trials = 160000
    val counts = new Array[Int](n)
    (0 until trials).foreach(i => counts(Hashing.reduce(Hashing.hash64(i.toLong, 5L), n)) += 1)
    val expected = trials.toDouble / n
    val chi2 = counts.map(c => (c - expected) * (c - expected) / expected).sum
    // 15 dof: P(chi2 > 50) < 1e-5 — generous bound for a fixed seed.
    assert(chi2 < 50, s"chi2=$chi2 suggests non-uniform reduced hash")
  }

  test("property: reduce in range for arbitrary inputs") {
    check(Prop.forAll(Gen.long, Gen.choose(1, 1 << 20)) { (h, n) =>
      val v = Hashing.reduce(h, n)
      v >= 0 && v < n
    })
  }

  test("VOSHashes validates k and m") {
    intercept[IllegalArgumentException](VOSHashes(0, 10, 1))
    intercept[IllegalArgumentException](VOSHashes(10, 0, 1))
  }

  test("VOSHashes.psi in [0, k)") {
    val h = VOSHashes(k = 33, m = 1000, seed = 9)
    (0L until 4000L).foreach { i =>
      val p = h.psi(i)
      assert(p >= 0 && p < 33)
    }
  }

  test("VOSHashes.f in [0, m) and validates j") {
    val h = VOSHashes(k = 8, m = 97, seed = 9)
    for (j <- 0 until 8; u <- 0L until 500L) {
      val p = h.f(j, u)
      assert(p >= 0 && p < 97)
    }
    intercept[IllegalArgumentException](h.f(8, 1L))
    intercept[IllegalArgumentException](h.f(-1, 1L))
  }

  test("property: the fWalk cursor equals f(j, u) for every j") {
    // Negative users, k not a multiple of 64, and m up to Int.MaxValue,
    // where reduce's unsigned branch (h < 0) is taken about half the time.
    val gen = for {
      k    <- Gen.oneOf(Gen.choose(1, 200), Gen.const(64), Gen.const(6400))
      m    <- Gen.oneOf(Gen.choose(1, 1 << 16), Gen.choose(Int.MaxValue - 1000, Int.MaxValue))
      seed <- Gen.long
      user <- Gen.oneOf(Gen.long, Gen.choose(-1000L, 1000L))
    } yield (VOSHashes(k, m, seed), user)
    check(Prop.forAll(gen) { case (h, u) =>
      val walk = h.fWalk(u)
      (0 until h.k).forall(j => walk.getAsInt == h.f(j, u))
    }, min = 200)
  }

  test("reduce equals (unsigned h · n) >> 64 at the top of the Int range") {
    val n = Int.MaxValue
    Seq(Long.MinValue, -1L, 0L, 1L, Long.MaxValue).foreach { key =>
      val h = Hashing.hash64(key, 3L)
      val v = Hashing.reduce(h, n)
      val unsigned = if (h < 0) BigInt(h) + (BigInt(1) << 64) else BigInt(h)
      assert(v == ((unsigned * n) >> 64).toInt && v >= 0 && v < n)
    }
    assert(Hashing.reduce(-1L, n) == n - 1 && Hashing.reduce(0L, n) == 0)
  }

  test("VOSHashes.position = f(psi(i), u)") {
    val h = VOSHashes(k = 16, m = 501, seed = 4)
    for (u <- 0L until 50L; i <- 0L until 50L)
      assert(h.position(u, i) == h.f(h.psi(i), u))
  }

  test("property: position(u, i) == f(psi(i), u)") {
    // Negative user and item ids, k not a power of two, and m up to
    // Int.MaxValue.
    val gen = for {
      k    <- Gen.oneOf(Gen.choose(1, 10000), Gen.const(100), Gen.const(6400), Gen.const(Int.MaxValue))
      m    <- Gen.oneOf(Gen.choose(1, 1 << 16), Gen.choose(Int.MaxValue - 1000, Int.MaxValue))
      seed <- Gen.long
      user <- Gen.oneOf(Gen.long, Gen.choose(-1000L, 1000L))
      item <- Gen.oneOf(Gen.long, Gen.choose(-1000L, 1000L))
    } yield (VOSHashes(k, m, seed), user, item)
    check(Prop.forAll(gen) { case (h, u, i) =>
      val p = h.position(u, i)
      p == h.f(h.psi(i), u) && p >= 0 && p < h.m
    }, min = 500)
  }

  test("VOSHashes: different users mostly land on different positions") {
    val h = VOSHashes(k = 64, m = 1 << 20, seed = 6)
    val ps = (0L until 2000L).map(u => h.position(u, 7L))
    // With m ~ 1e6 and 2000 draws, expected collisions ≈ 2 (birthday).
    assert(ps.distinct.size > 1980)
  }

  test("VOSHashes: psi spreads items over registers") {
    val h = VOSHashes(k = 10, m = 100, seed = 12)
    val counts = (0L until 10000L).map(h.psi).groupBy(identity).view.mapValues(_.size)
    assert(counts.size == 10)
    counts.values.foreach(c => assert(c > 700 && c < 1300, s"register load $c"))
  }

  test("different seeds give different hash bundles") {
    val h1 = VOSHashes(16, 1000, 1)
    val h2 = VOSHashes(16, 1000, 2)
    val diff = (0L until 200L).count(i => h1.psi(i) != h2.psi(i))
    assert(diff > 150)
  }
}
