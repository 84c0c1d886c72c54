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

  test("partitions of fewer than 64 edges ship their queued edges and still build bit-identically") {
    // Every partial is serialized with edges still queued in its block.
    Seq((40, 8), (100, 1), (130, 3)).foreach { case (n, parts) =>
      val events = TestStreams.random(10, 30, n, seed = 24L + n)
      val seq    = VOSSketch.build(H, events)
      val dist   = VOSAggregator.build(ds(events, parts), H)
      assert(dist.array == seq.array && dist.nU == seq.nU, s"$n edges in $parts partitions")
      assert(dist.array.onesCount == seq.array.onesCount)
    }
  }

  test("empty input yields an empty sketch") {
    val s = spark
    import s.implicits._
    // No partitions at all, and four partitions that are all empty.
    Seq(spark.emptyDataset[EdgeEvent], spark.createDataset(Seq.empty[EdgeEvent]).repartition(4))
      .foreach { events =>
        val dist = VOSAggregator.build(events, H)
        assert(dist.array.onesCount == 0 && dist.numUsers == 0)
      }
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

  test("partials larger than 64 MiB build bit-identically on default settings") {
    // 72 MiB of array words per partial: past Kryo's default 64m buffer
    // cap, which the partials' path does not go through.
    val big    = VOSHashes(k = 64, m = (1 << 29) + (1 << 26), seed = 17)
    val events = TestStreams.random(50, 200, 3000, seed = 25)
    val seq    = VOSSketch.build(big, events)
    val dist   = VOSAggregator.build(ds(events, 2), big)
    assert(dist.array == seq.array && dist.nU == seq.nU)
  }

  test("the result size check accepts youtube-lite and rejects paper scale at 16 partitions under 1g") {
    val maxBytes = 1L << 30
    VOSAggregator.requireFitsResultSize(VOSSketch.paperConfig(100, 4000), 4, maxBytes)
    val paper = VOSSketch.paperConfig(100, 300000)
    VOSAggregator.requireFitsResultSize(paper, 4, maxBytes)
    val e = intercept[IllegalArgumentException](VOSAggregator.requireFitsResultSize(paper, 16, maxBytes))
    assert(e.getMessage.contains(VOSAggregator.MaxResultSize))
    assert(e.getMessage.contains("at least 1832m"))
    VOSAggregator.requireFitsResultSize(paper, 16, 1832L << 20)
    VOSAggregator.requireFitsResultSize(paper, 16, 0L)
  }
}
