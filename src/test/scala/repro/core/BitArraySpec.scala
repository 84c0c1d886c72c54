package repro.core

import java.util.function.IntSupplier

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class BitArraySpec extends AnyFunSuite {

  private def check(prop: Prop, min: Int = 60): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  test("new array is all zeros") {
    val b = new BitArray(130)
    assert(b.onesCount == 0)
    (0 until 130).foreach(i => assert(b.get(i) == 0))
  }

  test("rejects non-positive length") {
    intercept[IllegalArgumentException](new BitArray(0))
    intercept[IllegalArgumentException](new BitArray(-5))
  }

  test("flip sets then clears a bit") {
    val b = new BitArray(64)
    assert(b.flip(7) == 1)
    assert(b.get(7) == 1)
    assert(b.onesCount == 1)
    assert(b.flip(7) == 0)
    assert(b.get(7) == 0)
    assert(b.onesCount == 0)
  }

  test("flip across word boundaries") {
    val b = new BitArray(200)
    Seq(0, 63, 64, 127, 128, 199).foreach(b.flip)
    assert(b.onesCount == 6)
    Seq(0, 63, 64, 127, 128, 199).foreach(i => assert(b.get(i) == 1))
    assert(b.get(65) == 0)
  }

  test("out-of-range positions rejected") {
    val b = new BitArray(10)
    intercept[IllegalArgumentException](b.get(10))
    intercept[IllegalArgumentException](b.flip(-1))
  }

  test("onesFraction") {
    val b = new BitArray(100)
    (0 until 25).foreach(b.flip)
    assert(b.onesFraction == 0.25)
  }

  test("xorInPlace equals per-bit xor") {
    val rng = new java.util.SplittableRandom(1)
    val a = new BitArray(150); val b = new BitArray(150)
    val expect = Array.fill(150)(0)
    (0 until 300).foreach { _ =>
      val p = rng.nextInt(150)
      if (rng.nextBoolean()) { a.flip(p); expect(p) ^= 1 }
      else { b.flip(p); expect(p) ^= 1 }
    }
    a.xorInPlace(b)
    (0 until 150).foreach(i => assert(a.get(i) == expect(i), s"bit $i"))
    assert(a.onesCount == expect.sum)
  }

  test("xorInPlace with itself-copy zeroes the array") {
    val a = new BitArray(77)
    Seq(1, 5, 76).foreach(a.flip)
    a.xorInPlace(a.copy())
    assert(a.onesCount == 0)
  }

  test("xorInPlace rejects length mismatch") {
    intercept[IllegalArgumentException](new BitArray(10).xorInPlace(new BitArray(11)))
  }

  test("hammingDistance") {
    val a = new BitArray(70); val b = new BitArray(70)
    a.flip(0); a.flip(69)
    b.flip(0); b.flip(33)
    assert(a.hammingDistance(b) == 2)
    assert(a.hammingDistance(a) == 0)
  }

  test("hammingDistance rejects length mismatch") {
    intercept[IllegalArgumentException](new BitArray(5).hammingDistance(new BitArray(6)))
  }

  private def supply(positions: Array[Int]): IntSupplier = {
    val it = positions.iterator
    () => it.next()
  }

  test("property: gather reads the bit at each position") {
    val gen = for {
      n  <- Gen.choose(1, 300)
      ps <- Gen.listOf(Gen.choose(0, n - 1))
      at <- Gen.nonEmptyListOf(Gen.choose(0, n - 1))
    } yield (n, ps, at.toArray)
    check(Prop.forAll(gen) { case (n, ps, at) =>
      val b = new BitArray(n); ps.foreach(b.flip)
      val g = b.gather(supply(at), at.length)
      g.numBits == at.length && at.indices.forall(j => g.get(j) == b.get(at(j))) &&
        g.onesCount == at.count(b.get(_) == 1)
    })
  }

  test("gather rejects positions outside the array") {
    val b = new BitArray(100)
    intercept[IllegalArgumentException](b.gather(supply(Array(3, 100)), 2))
    intercept[IllegalArgumentException](b.gather(supply(Array(-1, 3)), 2))
    assert(b.gather(supply(Array(3, 100)), 1).numBits == 1)
  }

  test("mutationCount counts flips, flipAll's flips and xors") {
    val a = new BitArray(70)
    assert(a.mutationCount == 0)
    a.flip(3); a.flipAll(Array(4, 4, 9), 2); a.get(5)
    assert(a.mutationCount == 3)
    a.xorInPlace(new BitArray(70))
    assert(a.mutationCount == 4)
    a.hammingDistance(a.copy()); a.gather(supply(Array(1, 2)), 2)
    assert(a.mutationCount == 4)
  }

  test("wordBytes is 8 bytes per 64 bits") {
    assert(new BitArray(64).wordBytes == 8 && new BitArray(65).wordBytes == 16)
  }

  test("copy is independent") {
    val a = new BitArray(40)
    a.flip(3)
    val c = a.copy()
    c.flip(4)
    assert(a.get(4) == 0 && c.get(4) == 1)
    assert(a.onesCount == 1 && c.onesCount == 2)
  }

  test("equals and hashCode reflect content") {
    val a = new BitArray(64); val b = new BitArray(64)
    assert(a == b && a.hashCode == b.hashCode)
    a.flip(10)
    assert(a != b)
    b.flip(10)
    assert(a == b && a.hashCode == b.hashCode)
    assert(a != new BitArray(65))
  }

  test("toBytes/fromBytes roundtrip") {
    val rng = new java.util.SplittableRandom(2)
    val a = new BitArray(133)
    (0 until 60).foreach(_ => a.flip(rng.nextInt(133)))
    val back = BitArray.fromBytes(133, a.toBytes)
    assert(back == a)
    assert(back.onesCount == a.onesCount)
  }

  test("fromBytes rejects wrong byte length") {
    intercept[IllegalArgumentException](BitArray.fromBytes(64, new Array[Byte](4)))
  }

  test("property: onesCount matches number of set bits after random flips") {
    val ops = Gen.listOf(Gen.choose(0, 99))
    check(Prop.forAll(ops) { ps =>
      val b = new BitArray(100)
      val ref = Array.fill(100)(0)
      ps.foreach { p => b.flip(p); ref(p) ^= 1 }
      b.onesCount == ref.sum.toLong && (0 until 100).forall(i => b.get(i) == ref(i))
    })
  }

  test("property: xor merge is commutative") {
    val ops = Gen.listOf(Gen.choose(0, 63))
    check(Prop.forAll(ops, ops) { (p1, p2) =>
      val a1 = new BitArray(64); p1.foreach(a1.flip)
      val b1 = new BitArray(64); p2.foreach(b1.flip)
      val a2 = a1.copy(); val b2 = b1.copy()
      a1.xorInPlace(b1)
      b2.xorInPlace(a2)
      a1 == b2
    })
  }

  test("property: xor merge is associative") {
    val ops = Gen.listOf(Gen.choose(0, 63))
    check(Prop.forAll(ops, ops, ops) { (p1, p2, p3) =>
      def mk(ps: List[Int]) = { val b = new BitArray(64); ps.foreach(b.flip); b }
      val left = mk(p1); left.xorInPlace(mk(p2)); left.xorInPlace(mk(p3))
      val bc = mk(p2); bc.xorInPlace(mk(p3))
      val right = mk(p1); right.xorInPlace(bc)
      left == right
    })
  }

  test("property: bytes roundtrip for arbitrary sizes") {
    val gen = for {
      n  <- Gen.choose(1, 300)
      ps <- Gen.listOf(Gen.choose(0, n - 1))
    } yield (n, ps)
    check(Prop.forAll(gen) { case (n, ps) =>
      val b = new BitArray(n); ps.foreach(b.flip)
      BitArray.fromBytes(n, b.toBytes) == b
    })
  }
}
