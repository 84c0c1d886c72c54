package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.nio.ByteBuffer

import org.apache.spark.SparkConf
import org.apache.spark.serializer.KryoSerializer
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestStreams
import repro.stream.EdgeEvent

class VOSSketchSpec extends AnyFunSuite {
  import VOSSketchSpec._

  private val H = VOSHashes(k = 64, m = 4096, seed = 5)

  private def check(prop: Prop, min: Int = 50): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  test("empty sketch: zero beta, no users") {
    val s = new VOSSketch(H)
    assert(s.beta == 0.0)
    assert(s.numUsers == 0)
    assert(s.cardinality(1L) == 0L)
  }

  test("single insert flips exactly one bit and bumps the counter") {
    val s = new VOSSketch(H)
    s.update(1L, 10L, insert = true)
    assert(s.array.onesCount == 1)
    assert(s.array.get(H.position(1L, 10L)) == 1)
    assert(s.cardinality(1L) == 1L)
  }

  test("insert then delete of the same edge cancels in the array") {
    val s = new VOSSketch(H)
    s.update(1L, 10L, insert = true)
    s.update(1L, 10L, insert = false)
    assert(s.array.onesCount == 0)
    assert(s.cardinality(1L) == 0L)
    assert(s.numUsers == 0)
  }

  test("counter tracks inserts minus deletes per user") {
    val s = new VOSSketch(H)
    Seq(10L, 11L, 12L).foreach(i => s.update(7L, i, insert = true))
    s.update(7L, 11L, insert = false)
    s.update(8L, 10L, insert = true)
    assert(s.cardinality(7L) == 2L)
    assert(s.cardinality(8L) == 1L)
    assert(s.numUsers == 2)
  }

  test("beta equals onesCount / m") {
    val s = new VOSSketch(H)
    (0L until 50L).foreach(i => s.update(i, i + 100, insert = true))
    assert(s.beta == s.array.onesCount.toDouble / H.m)
    assert(s.beta > 0)
  }

  test("update via EdgeEvent matches raw update") {
    val a = new VOSSketch(H)
    val b = new VOSSketch(H)
    a.update(EdgeEvent(3L, 4L, insert = true, 1L))
    b.update(3L, 4L, insert = true)
    assert(a.array == b.array && a.nU == b.nU)
  }

  test("array state is order-independent") {
    val events = TestStreams.random(20, 50, 400, seed = 11)
    val fwd = VOSSketch.build(H, events)
    val rev = VOSSketch.build(H, events.reverse) // infeasible order, same multiset
    assert(fwd.array == rev.array)
    assert(fwd.nU == rev.nU)
  }

  test("merge of partition partials equals sequential build") {
    val events = TestStreams.random(30, 60, 600, seed = 12)
    val seq    = VOSSketch.build(H, events)
    val parts  = events.grouped(137).map(VOSSketch.build(H, _)).toSeq
    val merged = parts.reduceLeft((a, b) => a.merge(b))
    assert(merged.array == seq.array)
    assert(merged.nU == seq.nU)
    assert(merged.beta == seq.beta)
  }

  test("merge rejects mismatched configs") {
    val a = new VOSSketch(VOSHashes(8, 64, 1))
    val b = new VOSSketch(VOSHashes(8, 64, 2))
    intercept[IllegalArgumentException](a.merge(b))
  }

  test("merge removes users whose counters cancel to zero") {
    val a = new VOSSketch(H); a.update(1L, 5L, insert = true)
    val b = new VOSSketch(H); b.update(1L, 5L, insert = false)
    a.merge(b)
    assert(a.numUsers == 0)
    assert(a.array.onesCount == 0)
  }

  test("rebuildOddSketch reads A at f_j(u)") {
    val s = new VOSSketch(H)
    s.update(9L, 3L, insert = true)
    val o = s.rebuildOddSketch(9L)
    assert(o.numBits == H.k)
    (0 until H.k).foreach(j => assert(o.get(j) == s.array.get(H.f(j, 9L))))
    assert(o.get(H.psi(3L)) == s.array.get(H.position(9L, 3L)))
  }

  test("alpha is symmetric and zero for identical virtual sketches") {
    val s = new VOSSketch(H)
    (0L until 30L).foreach(i => s.update(1L, i, insert = true))
    (0L until 30L).foreach(i => s.update(2L, i + 100, insert = true))
    assert(s.alpha(1L, 2L) == s.alpha(2L, 1L))
    assert(s.alpha(1L, 1L) == 0.0)
  }

  test("alpha equals hamming distance of rebuilt sketches / k") {
    val s = new VOSSketch(H)
    TestStreams.random(5, 40, 200, seed = 13).foreach(s.update)
    val o1 = s.rebuildOddSketch(0L)
    val o2 = s.rebuildOddSketch(1L)
    assert(s.alpha(0L, 1L) == o1.hammingDistance(o2).toDouble / H.k)
  }

  test("odd sketch parity: user's churned items leave its bits unchanged") {
    // With a private array (one user, huge m → no self-collision noise),
    // inserting and deleting churn items restores the exact array.
    val big = VOSHashes(k = 256, m = 1 << 20, seed = 21)
    val s1 = new VOSSketch(big)
    TestStreams.withChurn(1L, items = (0L until 40L), churn = (100L until 140L)).foreach(s1.update)
    val s2 = new VOSSketch(big)
    (0L until 40L).foreach(i => s2.update(1L, i, insert = true))
    assert(s1.array == s2.array)
    assert(s1.cardinality(1L) == s2.cardinality(1L))
  }

  test("copyOf is deep") {
    val s = new VOSSketch(H)
    s.update(1L, 2L, insert = true)
    val c = s.copyOf()
    c.update(3L, 4L, insert = true)
    assert(s.array != c.array)
    assert(s.cardinality(3L) == 0 && c.cardinality(3L) == 1)
  }

  test("estimate on disjoint large sets: s-hat near zero") {
    val cfg = VOSHashes(k = 2048, m = 1 << 20, seed = 31)
    val s = new VOSSketch(cfg)
    (0L until 100L).foreach(i => s.update(1L, i, insert = true))
    (200L until 300L).foreach(i => s.update(2L, i, insert = true))
    val est = s.estimate(1L, 2L)
    assert(math.abs(est.sRaw) < 15, s"sRaw=${est.sRaw} for disjoint sets")
    assert(est.s >= 0 && est.s <= 100)
  }

  test("estimate on identical sets: s-hat near the set size") {
    val cfg = VOSHashes(k = 2048, m = 1 << 20, seed = 32)
    val s = new VOSSketch(cfg)
    (0L until 100L).foreach { i =>
      s.update(1L, i, insert = true); s.update(2L, i, insert = true)
    }
    val est = s.estimate(1L, 2L)
    assert(math.abs(est.s - 100) < 15, s"s=${est.s} expected ~100")
    assert(est.jaccard > 0.8)
  }

  test("estimate accuracy on overlapping sets with deletions") {
    val cfg = VOSHashes(k = 4096, m = 1 << 21, seed = 33)
    val s = new VOSSketch(cfg)
    // u: {0..149}, v: {100..249}, overlap 50 — built with churn.
    (0L until 150L).foreach(i => s.update(1L, i, insert = true))
    (100L until 250L).foreach(i => s.update(2L, i, insert = true))
    // churn: add+remove 50 extra items on each
    (1000L until 1050L).foreach { i =>
      s.update(1L, i, insert = true); s.update(2L, i, insert = true)
    }
    (1000L until 1050L).foreach { i =>
      s.update(1L, i, insert = false); s.update(2L, i, insert = false)
    }
    val est = s.estimate(1L, 2L)
    assert(math.abs(est.s - 50) < 20, s"s=${est.s} expected ~50")
    val trueJ = 50.0 / 250.0
    assert(math.abs(est.jaccard - trueJ) < 0.1, s"J=${est.jaccard} expected ~$trueJ")
  }

  test("estimatePair returns (s, jaccard) of estimate") {
    val s = new VOSSketch(H)
    (0L until 10L).foreach(i => s.update(1L, i, insert = true))
    (0L until 10L).foreach(i => s.update(2L, i, insert = true))
    val (sHat, jHat) = s.estimatePair(1L, 2L)
    val est = s.estimate(1L, 2L)
    assert(sHat == est.s && jHat == est.jaccard)
  }

  test("paperConfig computes m = 32·k·|U| and k_vos = λ·32·k") {
    val h = VOSSketch.paperConfig(kBaseline = 100, numUsers = 50, seed = 1)
    assert(h.m == 32 * 100 * 50)
    assert(h.k == 2 * 32 * 100)
  }

  test("paperConfig rejects bad arguments and overflow") {
    intercept[IllegalArgumentException](VOSSketch.paperConfig(0, 10))
    intercept[IllegalArgumentException](VOSSketch.paperConfig(10, 0))
    intercept[IllegalArgumentException](VOSSketch.paperConfig(100000, 1000000))
  }

  test("property: insert/delete churn always cancels in the array") {
    val gen = for {
      user  <- Gen.choose(0L, 5L)
      items <- Gen.nonEmptyListOf(Gen.choose(0L, 1000L)).map(_.distinct)
    } yield (user, items)
    check(Prop.forAll(gen) { case (u, items) =>
      val s = new VOSSketch(H)
      items.foreach(i => s.update(u, i, insert = true))
      items.foreach(i => s.update(u, i, insert = false))
      s.array.onesCount == 0 && s.numUsers == 0
    })
  }

  test("property: merge is commutative on the array and counters") {
    val ev = Gen.listOf(for {
      u <- Gen.choose(0L, 10L); i <- Gen.choose(0L, 50L); ins <- Gen.oneOf(true, false)
    } yield (u, i, ins))
    check(Prop.forAll(ev, ev) { (e1, e2) =>
      def mk(es: List[(Long, Long, Boolean)]) = {
        val s = new VOSSketch(H); es.foreach { case (u, i, a) => s.update(u, i, a) }; s
      }
      val ab = mk(e1).merge(mk(e2))
      val ba = mk(e2).merge(mk(e1))
      ab.array == ba.array && ab.nU == ba.nU
    }, min = 30)
  }

  /** α the per-pair way: compare `A[f_j(u)]` with `A[f_j(v)]` for every j. */
  private def oracleAlpha(s: VOSSketch, u: Long, v: Long): Double = {
    val h = s.hashes
    (0 until h.k).count(j => s.array.get(h.f(j, u)) != s.array.get(h.f(j, v))).toDouble / h.k
  }

  /** Memo-test config: k not a multiple of 64, so the last word is partial. */
  private val Q = VOSHashes(k = 100, m = 2048, seed = 8)

  test("property: alpha matches the per-pair oracle under interleaved changes to A") {
    val user  = Gen.choose(-3L, 6L)
    val event = for { u <- user; i <- Gen.choose(0L, 40L); a <- Gen.oneOf(true, false) } yield (u, i, a)
    val pos   = Gen.choose(0, Q.m - 1)
    val op: Gen[Op] = Gen.frequency(
      4 -> event.map { case (u, i, a) => Update(u, i, a) },
      1 -> Gen.listOf(event).map(Merge(_)),
      1 -> Gen.const(CopyOf),
      1 -> pos.map(Flip(_)),
      1 -> Gen.listOf(pos).map(Xor(_)),
      6 -> (for { u <- user; v <- user } yield Query(u, v)),
    )
    check(Prop.forAll(Gen.listOf(op)) { ops =>
      var s  = new VOSSketch(Q)
      var ok = true
      ops.foreach {
        case Update(u, i, a) => s.update(u, i, a)
        case Merge(es) =>
          val o = new VOSSketch(Q); es.foreach { case (u, i, a) => o.update(u, i, a) }; s.merge(o)
        case CopyOf          => s = s.copyOf()
        case Flip(p)         => s.array.flip(p)
        case Xor(ps) =>
          val o = new BitArray(Q.m); ps.foreach(o.flip); s.array.xorInPlace(o)
        case Query(u, v) =>
          // Unmatched deletes leave negative counters, which estimate rejects.
          val counted = s.cardinality(u) >= 0 && s.cardinality(v) >= 0
          ok &&= s.alpha(u, v) == oracleAlpha(s, u, v) && s.alpha(u, u) == 0.0 &&
            (!counted || s.estimate(u, v).alpha == oracleAlpha(s, u, v))
        case op => throw new IllegalStateException(s"not generated here: $op")
      }
      ok && (-3L to 6L).forall(u => s.alpha(u, 0L) == oracleAlpha(s, u, 0L))
    }, min = 200)
  }

  test("alpha is unchanged once a GC has dropped the memo") {
    val s = new VOSSketch(Q)
    TestStreams.random(6, 40, 300, seed = 14).foreach(s.update)
    val pairs  = for (u <- 0L until 6L; v <- 0L until 6L) yield (u, v)
    val before = pairs.map { case (u, v) => s.alpha(u, v) }
    assert(s.health.memoizedUsers == 6)
    var gcs = 0
    while (s.health.memoizedUsers > 0 && gcs < 50) { System.gc(); Thread.sleep(10); gcs += 1 }
    assert(s.health.memoizedUsers == 0, s"memo still held after $gcs GCs")
    assert(pairs.map { case (u, v) => s.alpha(u, v) } == before)
    assert(before == pairs.map { case (u, v) => oracleAlpha(s, u, v) })
  }

  test("rebuildOddSketch reads the array afresh, not the memo") {
    val s = new VOSSketch(Q)
    TestStreams.random(4, 40, 200, seed = 15).foreach(s.update)
    val a = s.alpha(0L, 1L)
    val o = s.rebuildOddSketch(0L)
    assert(s.alpha(0L, 1L) == a)
    o.flip(0) // the caller's copy: changing it leaves the sketch's answers alone
    assert(s.alpha(0L, 1L) == a && s.rebuildOddSketch(0L) != o)
  }

  test("health reports beta, users, bytes and memoized users") {
    val s = new VOSSketch(Q)
    Seq(1L, 2L, 3L).foreach(u => s.update(u, 7L, insert = true))
    assert(s.health == VOSHealth(s.beta, 3, 8L * ((Q.m + 63) / 64), s.nU.slotBytes, 0))
    s.alpha(1L, 2L)
    assert(s.health.memoizedUsers == 2)
    s.estimate(2L, 3L)
    assert(s.health.memoizedUsers == 3)
    s.update(4L, 7L, insert = true)
    assert(s.health == VOSHealth(s.beta, 4, 8L * ((Q.m + 63) / 64), s.nU.slotBytes, 0))
  }

  private def kryoBytes(ser: org.apache.spark.serializer.SerializerInstance, s: VOSSketch): Array[Byte] = {
    val buf = ser.serialize(s)
    val out = new Array[Byte](buf.remaining)
    buf.get(out)
    out
  }

  private def javaBytes(s: VOSSketch): Array[Byte] = {
    val bytes = new ByteArrayOutputStream
    val out   = new ObjectOutputStream(bytes)
    out.writeObject(s)
    out.close()
    bytes.toByteArray
  }

  /** The round trip keeps the sketch and its answers and drops the memo. */
  private def sameSketch(back: VOSSketch, s: VOSSketch, pairs: Seq[(Long, Long)]): Unit = {
    assert(back.array == s.array && back.nU == s.nU && back.hashes == s.hashes)
    assert(back.health.memoizedUsers == 0)
    assert(pairs.forall { case (u, v) => back.estimate(u, v) == s.estimate(u, v) })
  }

  test("a queried sketch round-trips through Kryo and Java serialization without its memo") {
    val s = new VOSSketch(Q)
    TestStreams.random(6, 40, 300, seed = 16).foreach(s.update)
    val pairs = for (u <- 0L until 6L; v <- u + 1 until 6L) yield (u, v)
    val kryo  = new KryoSerializer(new SparkConf(false)).newInstance()
    s.array // applies the queued edges, as any query would, before "before"
    val (kryoBefore, javaBefore) = (kryoBytes(kryo, s), javaBytes(s))
    pairs.foreach { case (u, v) => s.estimate(u, v) }
    assert(s.health.memoizedUsers == 6)
    // Querying adds nothing to the serialized form (the aggregator buffer).
    assert(kryoBytes(kryo, s).sameElements(kryoBefore))
    assert(javaBytes(s).sameElements(javaBefore))

    sameSketch(kryo.deserialize[VOSSketch](ByteBuffer.wrap(kryoBefore)), s, pairs)
    val in = new ObjectInputStream(new ByteArrayInputStream(javaBefore))
    sameSketch(in.readObject().asInstanceOf[VOSSketch], s, pairs)
  }

  /** The sequential oracle: a plain bit set and count map, updated one edge
    * at a time through the public `f` and `psi`.
    */
  private final class Oracle(h: VOSHashes) {
    val bits   = scala.collection.mutable.BitSet.empty
    val counts = scala.collection.mutable.Map.empty[Long, Long].withDefaultValue(0L)
    def flip(p: Int): Unit = if (!bits.add(p)) bits.remove(p)
    def update(u: Long, i: Long, insert: Boolean): Unit = {
      flip(h.f(h.psi(i), u))
      counts(u) += (if (insert) 1L else -1L)
      if (counts(u) == 0L) counts.remove(u)
    }
    def beta: Double = bits.size.toDouble / h.m
    def odd(u: Long): Seq[Boolean] = (0 until h.k).map(j => bits(h.f(j, u)))
    def alpha(u: Long, v: Long): Double = odd(u).zip(odd(v)).count { case (a, b) => a != b }.toDouble / h.k
    def array: BitArray = { val a = new BitArray(h.m); bits.foreach(a.flip); a }
    def agrees(s: VOSSketch): Boolean =
      s.array == array && s.array.onesCount == bits.size && s.nU.toMap == counts.toMap
  }

  /** Stream lengths around the pending block of 64 edges. */
  private val BlockLengths = Seq(0, 1, 63, 64, 65, 130)

  test("property: updates queued in a block are seen by every reader as applied one by one") {
    val user  = Gen.choose(-3L, 6L)
    val event = for { u <- user; i <- Gen.choose(-20L, 40L); a <- Gen.oneOf(true, false) } yield (u, i, a)
    val pos   = Gen.choose(0, Q.m - 1)
    val read: Gen[Op] = Gen.oneOf(
      Gen.const(Beta), user.map(Card(_)), Gen.const(Users),
      for { u <- user; v <- user } yield Query(u, v),
      user.map(Rebuild(_)), Gen.listOf(event).map(Merge(_)), Gen.listOf(event).map(MergeInto(_)),
      Gen.const(CopyOf), Gen.const(Health), Gen.const(Assemble), Gen.const(Checks),
      pos.map(Flip(_)), Gen.listOf(pos).map(Xor(_)),
    )
    val gen = for {
      n      <- Gen.oneOf(BlockLengths)
      events <- Gen.listOfN(n, event)
      reads  <- Gen.listOf(Gen.zip(Gen.choose(0, n), read))
    } yield (events, reads)
    check(Prop.forAll(gen) { case (events, reads) =>
      var s  = new VOSSketch(Q)
      val o  = new Oracle(Q)
      var ok = true
      // A second sketch fed the same edges and writes: the benchmark's
      // checks compare two sketches, each with its own pending block.
      val twin = new VOSSketch(Q)
      def updateBoth(u: Long, i: Long, a: Boolean): Unit = { o.update(u, i, a); twin.update(u, i, a) }
      def flipBoth(p: Int): Unit = { o.flip(p); twin.array.flip(p) }
      def readAt(t: Int): Unit = reads.filter(_._1 == t).map(_._2).foreach {
        case Beta      => ok &&= s.beta == o.beta
        case Card(u)   => ok &&= s.cardinality(u) == o.counts(u)
        case Users     => ok &&= s.numUsers == o.counts.size
        case Query(u, v) =>
          ok &&= s.alpha(u, v) == o.alpha(u, v)
          if (o.counts(u) >= 0 && o.counts(v) >= 0)
            ok &&= s.estimate(u, v) == VOSEstimator.estimate(Q.k, o.alpha(u, v), o.beta, o.counts(u), o.counts(v))
        case Rebuild(u) =>
          val r = s.rebuildOddSketch(u)
          ok &&= (0 until Q.k).map(j => r.get(j) == 1) == o.odd(u)
        case Merge(es) =>
          val other = new VOSSketch(Q)
          es.foreach { case (u, i, a) => other.update(u, i, a); updateBoth(u, i, a) }
          s.merge(other)
        case MergeInto(es) =>
          val other = new VOSSketch(Q)
          es.foreach { case (u, i, a) => other.update(u, i, a); updateBoth(u, i, a) }
          s = other.merge(s)
        case CopyOf => s = s.copyOf()
        case Health =>
          val hs = s.health
          ok &&= hs.beta == o.beta && hs.users == o.counts.size && hs.counterBytes == s.nU.slotBytes
        case Assemble =>
          val users = s.nU.toMap.toSeq.map { case (u, c) => VOSStreaming.UserUpdate(u, c, 1L) }
          s = VOSStreaming.assemble(Q, 1, Seq(VOSStreaming.PartUpdate(0, s.array.toBytes, 1L)), users)
        case Checks =>
          ok &&= s.array == twin.array && s.array.hammingDistance(twin.array) == 0 &&
            o.counts.keys.forall(u => s.cardinality(u) == twin.cardinality(u))
        case Flip(p)      => s.array.flip(p); flipBoth(p)
        case Xor(ps) =>
          val x = new BitArray(Q.m); ps.foreach(x.flip); s.array.xorInPlace(x)
          (0 until Q.m).filter(x.get(_) == 1).foreach(flipBoth)
        case op => throw new IllegalStateException(s"not a read: $op")
      }
      events.zipWithIndex.foreach { case ((u, i, a), t) =>
        readAt(t)
        s.update(u, i, a)
        updateBoth(u, i, a)
      }
      readAt(events.length)
      ok && o.agrees(s) && o.agrees(twin)
    }, min = 300)
  }

  /** `n` random feasible edges over 6 users. */
  private def blockStream(n: Int, seed: Long) = TestStreams.random(6, 40, n, seed = seed)

  test("a sketch with queued edges round-trips through Kryo and Java serialization") {
    val kryo = new KryoSerializer(new SparkConf(false)).newInstance()
    BlockLengths.foreach { n =>
      val events = blockStream(n, seed = 40L + n)
      val s      = VOSSketch.build(Q, events) // up to 63 edges still queued
      val (kb, jb) = (kryoBytes(kryo, s), javaBytes(s))
      val fromKryo = kryo.deserialize[VOSSketch](ByteBuffer.wrap(kb))
      val fromJava = new ObjectInputStream(new ByteArrayInputStream(jb)).readObject().asInstanceOf[VOSSketch]
      Seq(fromKryo, fromJava).foreach { back =>
        val want = VOSSketch.build(Q, events)
        want.array // the flushed sequential build
        assert(back.array == want.array && back.nU == want.nU, s"$n edges")
        // The block goes on filling where it left off.
        val more = blockStream(70, seed = 90L + n)
        more.foreach(back.update)
        more.foreach(want.update)
        assert(back.array == want.array && back.nU == want.nU, s"$n + 70 edges")
      }
      // Edges were still queued when it was serialized: applying them
      // changes the serialized form.
      s.array
      assert(kryoBytes(kryo, s).sameElements(kb) == (n % 64 == 0), s"$n edges")
    }
  }
}

object VOSSketchSpec {
  private sealed trait Op
  private final case class Update(u: Long, i: Long, insert: Boolean) extends Op
  private final case class Merge(events: List[(Long, Long, Boolean)]) extends Op
  private case object CopyOf extends Op
  private final case class Flip(pos: Int) extends Op
  private final case class Xor(positions: List[Int]) extends Op
  private final case class Query(u: Long, v: Long) extends Op
  private case object Beta extends Op
  private final case class Card(u: Long) extends Op
  private case object Users extends Op
  private final case class Rebuild(u: Long) extends Op
  private final case class MergeInto(events: List[(Long, Long, Boolean)]) extends Op
  private case object Health extends Op
  private case object Assemble extends Op
  private case object Checks extends Op
}
