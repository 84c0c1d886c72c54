package repro

import repro.baselines.ExactSim
import repro.core.{VOSAggregator, VOSSketch, VOSStreaming}
import repro.eval.{BenchTables, EvalConfig, Harness}
import repro.stream.{DatasetSpec, DynamicStreamGen, GraphGen}

/** End-to-end checks tying every layer together: generated dynamic stream →
  * sequential / batch-aggregated / structured-streaming VOS builds →
  * estimates vs exact truth → the bench table producers.
  */
class IntegrationSpec extends SparkSpec {

  private val spec   = DatasetSpec.scaled(DatasetSpec.youtube, 0.05)
  private lazy val stream = DynamicStreamGen.generate(GraphGen.baseEdges(spec), seed = 99L)
  private lazy val hashes = VOSSketch.paperConfig(64, spec.numUsers, seed = 77L)

  test("sequential, aggregator, and streaming builds agree on a real stream") {
    val s = spark
    import s.implicits._
    val seq  = VOSSketch.build(hashes, stream)
    val dist = VOSAggregator.build(spark.createDataset(stream).repartition(8), hashes)
    assert(dist.array == seq.array && dist.nU == seq.nU)

    val str = VOSStreaming.run(spark, hashes, numPartitions = 16, stream, nBatches = 5)
    assert(str.array == seq.array && str.nU == seq.nU)
  }

  test("VOS estimates track exact similarities on top pairs") {
    val vos   = VOSSketch.build(hashes, stream)
    val exact = new ExactSim
    stream.foreach(exact.update)
    val top = Harness.topUsers(exact, 12)
    val pairs = top.combinations(2).map { case Seq(u, v) => (u, v) }.toSeq
      .filter { case (u, v) => exact.commonItems(u, v) >= 1 }
    assert(pairs.nonEmpty, "no overlapping top pairs — generator broken")
    val errors = pairs.map { case (u, v) =>
      val (sHat, _) = vos.estimatePair(u, v)
      val s = exact.commonItems(u, v).toDouble
      math.abs(s - sHat) / s
    }
    val mean = errors.sum / errors.size
    assert(mean < 0.5, s"mean relative error $mean too large for k=${hashes.k}")
  }

  test("deletion bias shows up in MinHash/OPH but not VOS on churn-heavy stream") {
    // Heavy churn: d = 0.9, r = 0.9 → many delete+reinsert cycles, where
    // the sampling bias the paper identifies dominates the error.
    val cfg = EvalConfig(kBaseline = 32, topUsers = 30, checkpoints = 2, d = 0.9, r = 0.9)
    val last = Harness.evaluate(spec, cfg).filter(_.checkpoint == 2)
    def aape(m: String) = last.find(_.method == m).get.aape
    assert(aape("VOS") < aape("MinHash"), s"VOS ${aape("VOS")} vs MinHash ${aape("MinHash")}")
    assert(aape("VOS") < aape("OPH"), s"VOS ${aape("VOS")} vs OPH ${aape("OPH")}")
  }

  test("runtime table producer emits rows for every method and k") {
    val rows = BenchTables.runtimeVsK(DatasetSpec.scaled(DatasetSpec.youtube, 0.02), ks = Seq(1, 16))
    assert(rows.size == 2 * 4)
    assert(rows.forall(_.nsPerEdge > 0))
    val rendered = BenchTables.renderRuntimeVsK(rows, "smoke")
    assert(rendered.contains("VOS ns/edge") && rendered.contains("k"))
  }

  test("accuracy table producers render all datasets (scaled)") {
    val tiny = DatasetSpec.all.map(DatasetSpec.scaled(_, 0.02))
    val cfg  = EvalConfig(kBaseline = 16, topUsers = 15, checkpoints = 2)
    val rows = BenchTables.accuracyAllDatasets(tiny, cfg)
    assert(rows.map(_.dataset).distinct.size == 4)
    assert(rows.size == 4 * 4) // 4 datasets × 4 methods at the last checkpoint
    val t5 = BenchTables.renderAccuracyAllDatasets(rows, "AAPE", "smoke T5")
    val t6 = BenchTables.renderAccuracyAllDatasets(rows, "ARMSE", "smoke T6")
    assert(t5.contains("youtube-lite") && t6.contains("livejournal-lite"))
  }

  test("accuracy-over-time producer covers every checkpoint") {
    val cfg = EvalConfig(kBaseline = 16, topUsers = 15, checkpoints = 3)
    val rows = Harness.evaluate(DatasetSpec.scaled(DatasetSpec.youtube, 0.03), cfg)
    assert(rows.map(_.checkpoint).distinct.sorted == Seq(1, 2, 3))
    val t3 = BenchTables.renderAccuracyOverTime(rows, "AAPE", "smoke T3")
    assert(t3.contains("checkpoint"))
  }

  test("beta stays small under the paper memory budget") {
    val vos = VOSSketch.build(hashes, stream)
    assert(vos.beta < 0.2, s"beta=${vos.beta} — shared array too saturated at paper budget")
    assert(vos.beta > 0.0)
  }
}
