package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import org.apache.spark.SparkConf
import org.apache.spark.serializer.KryoSerializer
import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class CounterMapSpec extends AnyFunSuite {

  private def check(prop: Prop, min: Int = 200): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  /** A small key space, so keys collide, probe runs wrap past the end of
    * the table, and the table grows and shrinks back to few keys.
    */
  private val keys: IndexedSeq[Long] =
    IndexedSeq(0L, 1L, -1L, Long.MinValue, Long.MaxValue) ++ (2L to 40L) ++ (1L to 8L).map(_ << 40)

  private val op: Gen[(Long, Long)] =
    for (k <- Gen.oneOf(keys); d <- Gen.oneOf(-2L, -1L, -1L, 1L, 1L, 1L, 2L)) yield (k, d)

  private def fill(ops: Seq[(Long, Long)]): CounterMap = {
    val m = new CounterMap
    ops.foreach { case (k, d) => m.add(k, d) }
    m
  }

  test("matches a HashMap reference on random add sequences, negative counts included") {
    check(Prop.forAll(Gen.listOf(op)) { ops =>
      val m   = new CounterMap
      val ref = mutable.HashMap.empty[Long, Long]
      ops.forall { case (k, d) =>
        m.add(k, d)
        val next = ref.getOrElse(k, 0L) + d
        if (next == 0L) ref.remove(k) else ref.update(k, next)
        m.size == ref.size && keys.forall(x => m.get(x) == ref.getOrElse(x, 0L))
      } && m.toMap == ref.toMap
    })
  }

  test("a count that returns to 0 removes its key, and the rest stay reachable") {
    val m = new CounterMap
    (1L to 200L).foreach(k => m.add(k, k))
    (1L to 200L by 2).foreach(k => m.add(k, -k))
    assert(m.size == 100)
    (1L to 200L).foreach(k => assert(m.get(k) == (if (k % 2 == 0) k else 0L), s"key $k"))
    (2L to 200L by 2).foreach(k => m.add(k, -k))
    assert(m.size == 0 && m.toMap.isEmpty)
  }

  test("adding 0 to an absent key stores nothing") {
    val m = new CounterMap
    m.add(5L, 0L)
    assert(m.size == 0 && m.get(5L) == 0L)
  }

  test("equality and hashCode follow contents, not slot layout or history") {
    val grown = new CounterMap
    (1L to 500L).foreach(k => grown.add(k, 3L))
    (50L to 500L).foreach(k => grown.add(k, -3L))
    val direct = new CounterMap
    (49L to 1L by -1).foreach(k => direct.add(k, 3L))
    assert(grown.slotBytes > direct.slotBytes)
    assert(grown == direct && direct == grown)
    assert(grown.hashCode == direct.hashCode)
    direct.add(7L, 1L)
    assert(grown != direct)
    direct.add(7L, -1L)
    direct.add(1000L, -1L)
    assert(grown != direct)
  }

  test("merge by addAll sums counts and drops the keys that cancel") {
    check(Prop.forAll(Gen.listOf(op), Gen.listOf(op)) { (xs, ys) =>
      val a = fill(xs)
      a.addAll(fill(ys))
      a == fill(xs ++ ys)
    })
  }

  test("Java serialization round trip") {
    val m = fill((1L to 300L).map(k => k -> (k % 7 - 3)))
    val bytes = new ByteArrayOutputStream
    val out   = new ObjectOutputStream(bytes)
    out.writeObject(m)
    out.close()
    val back = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[CounterMap]
    assert(back == m && back.toMap == m.toMap)
    back.add(301L, 1L)
    assert(back.get(301L) == 1L)
  }

  test("round trip through Spark's KryoSerializer") {
    val m    = fill((1L to 300L).map(k => (k << 33) -> (k % 5 - 2)))
    val kryo = new KryoSerializer(new SparkConf()).newInstance()
    val back = kryo.deserialize[CounterMap](kryo.serialize(m))
    assert(back == m && back.toMap == m.toMap)
    back.add(1L << 33, 10L)
    assert(back.get(1L << 33) == m.get(1L << 33) + 10L)
  }
}
