package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.{VOSSketch, VOSStreaming}
import repro.eval.EvalConfig
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
    import spark.implicits._
    import org.apache.spark.sql.execution.streaming.runtime.MemoryStream

    val spec   = DatasetSpec.scaled(DatasetSpec.youtube, 0.1)
    val stream = DynamicStreamGen.generate(GraphGen.baseEdges(spec))
    val numUsers = stream.iterator.map(_.user).distinct.size
    val hashes = VOSSketch.paperConfig(100, numUsers)
    val parts  = 64

    implicit val sqlCtx = spark.sqlContext
    val arraySource   = MemoryStream[repro.stream.EdgeEvent]
    val counterSource = MemoryStream[repro.stream.EdgeEvent]

    val arrayQ = VOSStreaming.arrayUpdates(arraySource.toDS(), hashes, parts)
      .writeStream.outputMode("update").format("memory").queryName("vos_array").start()
    val counterQ = VOSStreaming.counterUpdates(counterSource.toDS())
      .writeStream.outputMode("update").format("memory").queryName("vos_counts").start()

    val chunk = math.max(1, stream.length / batches)
    stream.grouped(chunk).foreach { g =>
      arraySource.addData(g); counterSource.addData(g)
      arrayQ.processAllAvailable(); counterQ.processAllAvailable()
    }

    val sketch = VOSStreaming.assemble(
      hashes, parts,
      spark.table("vos_array").as[VOSStreaming.PartUpdate].collect().toSeq,
      spark.table("vos_counts").as[VOSStreaming.UserUpdate].collect().toSeq,
    )
    arrayQ.stop(); counterQ.stop()

    val exact = new repro.baselines.ExactSim
    stream.foreach(exact.update)
    val top = exact.users.toSeq.sortBy(u => (-exact.cardinality(u), u)).take(6)
    println(f"${"pair"}%-16s ${"s_true"}%8s ${"s_hat"}%10s ${"J_true"}%8s ${"J_hat"}%8s")
    for (Seq(u, v) <- top.combinations(2).take(10)) {
      val (sHat, jHat) = sketch.estimatePair(u, v)
      println(f"($u%5d,$v%5d)    ${exact.commonItems(u, v)}%8d $sHat%10.2f ${exact.jaccard(u, v)}%8.4f $jHat%8.4f")
    }
    println(s"beta=${sketch.beta}  users=${sketch.numUsers}  events=${stream.length}")
    spark.stop()
  }
}
