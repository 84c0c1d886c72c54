package repro.core

import scala.util.Random

import repro.{SparkSpec, TestStreams}

class VOSStreamingSpec extends SparkSpec {

  private val H = VOSHashes(k = 32, m = 2048, seed = 19)

  test("bitsPerPart / partLength cover [0, m) exactly") {
    for (m <- Seq(100, 1000, 2048, 12800003); p <- Seq(1, 3, 7, 16)) {
      val bpp  = VOSStreaming.bitsPerPart(m, p)
      val lens = (0 until p).map(VOSStreaming.partLength(m, p, _))
      assert(bpp % 64 == 0, s"m=$m parts=$p: $bpp bits per range")
      assert(lens.forall(l => l >= 0 && l <= bpp))
      assert(lens.map(_.toLong).sum == m, s"m=$m parts=$p cover ${lens.sum} bits")
      assert(bpp.toLong * p >= m)
    }
    // One range over the largest m saturates instead of overflowing.
    assert(VOSStreaming.partLength(Int.MaxValue, 1, 0) == Int.MaxValue)
  }

  test("bitsPerPart validates partition count") {
    intercept[IllegalArgumentException](VOSStreaming.bitsPerPart(10, 0))
    intercept[IllegalArgumentException](VOSStreaming.bitsPerPart(10, 11))
  }

  test("route sends each edge to the partition owning its position") {
    val s = spark
    import s.implicits._
    val events = TestStreams.random(10, 30, 200, seed = 31)
    val routed = VOSStreaming.route(spark.createDataset(events), H, 8).collect()
    val bpp = VOSStreaming.bitsPerPart(H.m, 8)
    routed.foreach { r =>
      assert(r.part == r.pos / bpp)
      assert(r.pos >= 0 && r.pos < H.m)
    }
    // Multiset of positions matches the hash of each event.
    val expected = events.map(e => H.position(e.user, e.item)).sorted
    assert(routed.map(_.pos).sorted.toSeq == expected)
  }

  test("streaming build equals sequential build (multi-batch)") {
    val events = TestStreams.random(25, 80, 2000, seed = 32)
    val seq = VOSSketch.build(H, events)
    val str = VOSStreaming.run(spark, H, 8, events, nBatches = 7)
    assert(str.array == seq.array)
    assert(str.nU == seq.nU)
    assert(str.beta == seq.beta)
  }

  test("streaming build equals sequential build (single batch, 1 partition)") {
    val events = TestStreams.random(12, 40, 600, seed = 33)
    val seq = VOSSketch.build(H, events)
    val str = VOSStreaming.run(spark, H, 1, events, nBatches = 1)
    assert(str.array == seq.array && str.nU == seq.nU)
  }

  test("streaming handles deletions: churn cancels across batches") {
    val events = TestStreams.withChurn(2L, items = 0L until 15L, churn = 30L until 60L)
    val str = VOSStreaming.run(spark, H, 4, events, nBatches = 5)
    val direct = new VOSSketch(H)
    (0L until 15L).foreach(i => direct.update(2L, i, insert = true))
    assert(str.array == direct.array)
    assert(str.cardinality(2L) == 15L)
  }

  test("pair estimates from the streaming sketch match sequential") {
    val events = TestStreams.random(8, 40, 1200, seed = 34)
    val seq = VOSSketch.build(H, events)
    val str = VOSStreaming.run(spark, H, 6, events, nBatches = 4)
    for (u <- 0L until 8L; v <- 0L until u)
      assert(str.estimatePair(u, v) == seq.estimatePair(u, v))
  }

  test("batch-mode execution of the same operators also matches") {
    val s = spark
    import s.implicits._
    val events = TestStreams.random(15, 50, 800, seed = 35)
    val seq = VOSSketch.build(H, events)
    val partUps = VOSStreaming.arrayUpdates(spark.createDataset(events), H, 8).collect().toSeq
    val userUps = VOSStreaming.counterUpdates(spark.createDataset(events)).collect().toSeq
    val got = VOSStreaming.assemble(H, 8, partUps, userUps)
    assert(got.array == seq.array && got.nU == seq.nU)
  }

  test("run twice in one session: both bit-identical, nothing left running") {
    val events = TestStreams.random(20, 60, 1500, seed = 36)
    val seq    = VOSSketch.build(H, events)
    val runs   = Seq.fill(2)(VOSStreaming.run(spark, H, 5, events, nBatches = 2))
    runs.foreach(r => assert(r.array == seq.array && r.nU == seq.nU))
    assert(spark.streams.active.isEmpty)
    assert(!spark.catalog.listTables().collect().exists(_.name.startsWith("vos_")))
  }

  test("assemble does not depend on the order of the rows") {
    val s = spark
    import s.implicits._
    val events = TestStreams.random(15, 50, 800, seed = 37)
    // One row per group per prefix, versioned by prefix, as a memory table collects them.
    val partUps = (1 to 4).flatMap { b =>
      VOSStreaming.arrayUpdates(spark.createDataset(events.take(200 * b)), H, 8).collect()
        .map(_.copy(version = b.toLong))
    }
    val userUps = VOSStreaming.counterUpdates(spark.createDataset(events)).collect().toSeq
    val seq     = VOSSketch.build(H, events)
    for (seed <- 1 to 3) {
      val rnd = new Random(seed)
      val got = VOSStreaming.assemble(H, 8, rnd.shuffle(partUps), rnd.shuffle(userUps))
      assert(got.array == seq.array && got.nU == seq.nU)
    }
  }
}
