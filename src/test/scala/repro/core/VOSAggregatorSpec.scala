package repro.core

import repro.{SparkSpec, TestStreams}
import repro.stream.EdgeEvent

class VOSAggregatorSpec extends SparkSpec {

  private val H = VOSHashes(k = 64, m = 8192, seed = 17)

  private def ds(events: Seq[EdgeEvent], parts: Int) = {
    val s = spark
    import s.implicits._
    spark.createDataset(events).repartition(parts)
  }

  test("distributed build equals sequential build (array, counters, beta)") {
    val events = TestStreams.random(40, 100, 3000, seed = 21)
    val seq    = VOSSketch.build(H, events)
    val dist   = VOSAggregator.build(ds(events, 8), H)
    assert(dist.array == seq.array)
    assert(dist.nU == seq.nU)
    assert(dist.beta == seq.beta)
  }

  test("result is independent of partitioning") {
    val events = TestStreams.random(20, 60, 1500, seed = 22)
    val a = VOSAggregator.build(ds(events, 1), H)
    val b = VOSAggregator.build(ds(events, 16), H)
    assert(a.array == b.array && a.nU == b.nU)
  }

  test("pair estimates from the distributed sketch match sequential") {
    val events = TestStreams.random(10, 50, 2000, seed = 23)
    val seq  = VOSSketch.build(H, events)
    val dist = VOSAggregator.build(ds(events, 4), H)
    for (u <- 0L until 10L; v <- 0L until u) {
      assert(dist.estimatePair(u, v) == seq.estimatePair(u, v), s"pair ($u,$v)")
    }
  }

  test("empty input yields an empty sketch") {
    val s = spark
    import s.implicits._
    val dist = VOSAggregator.build(spark.emptyDataset[EdgeEvent], H)
    assert(dist.array.onesCount == 0 && dist.numUsers == 0)
  }

  test("insert/delete churn cancels in the distributed build too") {
    val churn = TestStreams.withChurn(1L, items = 0L until 20L, churn = 50L until 90L)
    val dist = VOSAggregator.build(ds(churn, 8), H)
    val direct = new VOSSketch(H)
    (0L until 20L).foreach(i => direct.update(1L, i, insert = true))
    assert(dist.array == direct.array)
    assert(dist.cardinality(1L) == 20L)
  }

  test("aggregation with a realistic paper config on a generated stream") {
    val spec   = repro.stream.DatasetSpec.scaled(repro.stream.DatasetSpec.youtube, 0.02)
    val events = repro.stream.DynamicStreamGen.generate(
      repro.stream.GraphGen.baseEdges(spec), seed = 3)
    val users  = events.map(_.user).distinct.size
    val hashes = VOSSketch.paperConfig(16, users, seed = 5)
    val seq    = VOSSketch.build(hashes, events)
    val dist   = VOSAggregator.build(ds(events, 8), hashes)
    assert(dist.array == seq.array && dist.nU == seq.nU)
  }

  test("the Kryo buffer check accepts youtube-lite and rejects paper scale at 64m") {
    val maxBytes = 64L << 20
    VOSAggregator.requireFitsKryoBuffer(VOSSketch.paperConfig(100, 4000), maxBytes)
    val paper = VOSSketch.paperConfig(100, 300000)
    assert(VOSAggregator.minSerializedBytes(paper) >= paper.m / 8)
    val e = intercept[IllegalArgumentException](VOSAggregator.requireFitsKryoBuffer(paper, maxBytes))
    assert(e.getMessage.contains(VOSAggregator.KryoBufferMax))
    assert(e.getMessage.contains("at least 115m"))
    VOSAggregator.requireFitsKryoBuffer(paper, 115L << 20)
  }
}
