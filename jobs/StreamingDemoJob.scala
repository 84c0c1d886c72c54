package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{VOSSketch, VOSStreaming}
import repro.eval.Harness
import repro.stream.{DatasetSpec, DynamicStreamGen, GraphGen}

/** spark-submit entrypoint demonstrating the Structured Streaming build of
  * VOS: the edge stream is fed through the two stateful operators
  * (bit-range array state + per-user counters) in micro-batches, the
  * sketch is reassembled from the emitted state updates, and a few pair
  * estimates are printed against the exact values.
  *
  * Usage: `spark-submit --class repro.jobs.StreamingDemoJob repro.jar [batches]`
  */
object StreamingDemoJob {
  def main(args: Array[String]): Unit = {
    val batches = args.headOption.map(_.toInt).getOrElse(8)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("vos-streaming-demo")
      .getOrCreate()
    val spec   = DatasetSpec.scaled(DatasetSpec.youtube, 0.1)
    val stream = DynamicStreamGen.generate(GraphGen.baseEdges(spec))
    val hashes = VOSSketch.paperConfig(100, spec.numUsers)
    val sketch = VOSStreaming.run(spark, hashes, numPartitions = 64, stream, batches)

    val exact = new repro.baselines.ExactSim
    stream.foreach(exact.update)
    val top = Harness.topUsers(exact, 6)
    println(f"${"pair"}%-16s ${"s_true"}%8s ${"s_hat"}%10s ${"J_true"}%8s ${"J_hat"}%8s")
    for (Seq(u, v) <- top.combinations(2).take(10)) {
      val (s, j)       = exact.estimatePair(u, v)
      val (sHat, jHat) = sketch.estimatePair(u, v)
      println(f"($u%5d,$v%5d)    $s%8.0f $sHat%10.2f $j%8.4f $jHat%8.4f")
    }
    println(s"beta=${sketch.beta}  users=${sketch.numUsers}  events=${stream.length}")
    spark.stop()
  }
}
