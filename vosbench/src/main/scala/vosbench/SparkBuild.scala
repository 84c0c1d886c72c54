package vosbench

import scala.collection.mutable

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.serializer.KryoSerializer
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQueryProgress
import repro.core.{BitArray, VOSAggregator, VOSSketch, VOSStreaming}
import repro.core.VOSStreaming.{PartUpdate, UserUpdate}
import repro.stream.EdgeEvent

/** `spark-build`: the youtube-lite stream built on `local[nproc]` two
  * ways — `VOSAggregator.build` over a cached Dataset, repeatedly, and
  * `VOSStreaming` fed by `MemoryStream` in 10 fixed micro-batches, its
  * output put back together with `assemble`.
  */
object SparkBuild extends Workload {
  val name = "spark-build"

  val Batches = 10
  val Cores: Int = Runtime.getRuntime.availableProcessors()

  /** Job group of the aggregator builds, so the listener can tell their
    * tasks apart.
    */
  private val AggGroup = "vosbench-agg"

  /** Task metrics of the aggregator jobs, summed. */
  private final class AggListener extends SparkListener {
    private val stageGroup = mutable.Map.empty[Int, String]
    val ended      = mutable.Set.empty[Int]
    var taskRunMs  = 0L
    var taskGcMs   = 0L
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      group.foreach(g => e.stageIds.foreach(stageGroup.update(_, g)))
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      if (stageGroup.get(e.stageId).contains(AggGroup) && e.taskMetrics != null) {
        taskRunMs += e.taskMetrics.executorRunTime
        taskGcMs += e.taskMetrics.jvmGCTime
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { ended += e.jobId; () }
  }

  def session(tmp: java.nio.file.Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$Cores]")
      .appName("vosbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", Cores.toString)
      .config("spark.default.parallelism", Cores.toString)
      .config("spark.local.dir", tmp.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", tmp.resolve("warehouse").toString)
      .getOrCreate()

  def run(ctx: Ctx): Unit = {
    import ctx._
    val s     = Inputs.generate(Inputs.youtubeLite(seed), seed, trace)
    val pairs = Exact.allPairs(Inputs.largestUsers(s, TrackedPairs.TrackedUsers))
    trace.span("warmup")(Layers.warmUp(s, pairs))
    val aggs          = new AggBuilds(s, trace)
    val (last, exact) = sparkBuilds(ctx, s, pairs, aggs)

    // Spark is stopped: the sequential reference and the checks.
    val seq = trace.span("vos.sequential_build")(Layers.build(s))
    report.check("aggregator_bit_identical", Checks.bitIdentical(aggs.latest, seq, s.spec.numUsers))
    report.check("streaming_bit_identical", Checks.bitIdentical(last.sketch, seq, s.spec.numUsers))
    if (traced) {
      Layers.genMetrics(trace, report)
      Layers.baselineMetrics(trace, report)
      Layers.ingestProbes(s, trace, report)
    }
    val holder = Array[AnyRef](aggs.latest)
    aggs.latest = null
    Layers.heapMetrics(holder, s.hashes.m, exact.sizes.count(_ > 0).toLong, report)
  }

  /** `VOSAggregator.build` over the cached Dataset; a step is one build. */
  final class AggBuilds(s: Stream, tr: Trace) extends Task {
    var ds: Dataset[EdgeEvent] = _
    var buildNs = Vector.empty[Double]
    var latest: VOSSketch = _
    def done: Boolean = buildNs.length >= 3
    def step(): Unit = {
      val t0 = System.nanoTime()
      latest = tr.span("agg.build")(VOSAggregator.build(ds, s.hashes))
      buildNs :+= (System.nanoTime() - t0).toDouble
    }
  }

  /** Streaming replays; a step is one micro-batch. The queries start
    * before a replay's first batch, and after its last the rows are
    * collected, the sketch assembled and the queries stopped.
    */
  final class StreamReplays(spark: SparkSession, s: Stream, tmp: java.nio.file.Path, tr: Trace, report: Report)
      extends Task {
    var replays = Vector.empty[Replay]
    private var current: StreamingRun = _
    def done: Boolean = replays.nonEmpty
    def step(): Unit = {
      if (current == null)
        current = new StreamingRun(spark, s, tmp, s"r${replays.length}", s.events, Batches, tr)
      current.nextBatch()
      if (current.finished) {
        val r = current.finish()
        current = null
        report.check(s"rows_not_lost.array.r${replays.length}", Checks.rowsNotLost(r.arrayRows, s.n))
        report.check(s"rows_not_lost.counter.r${replays.length}", Checks.rowsNotLost(r.counterRows, s.n))
        replays :+= r
      }
    }
    /** Stop a replay the run ended in the middle of. */
    def close(): Unit = if (current != null) { current.stop(); current = null }
  }

  /** Spark's set-up and the timed part: aggregator builds, streaming
    * micro-batches, pair estimates on the aggregator's sketch and the
    * baselines, in turn. Returns the last streaming replay and the exact
    * final sets; stops Spark.
    */
  private def sparkBuilds(ctx: Ctx, s: Stream, pairs: Array[(Long, Long)], aggs: AggBuilds): (Replay, Exact) = {
    import ctx._
    val spark = trace.span("spark.session")(session(tmpDir))
    try {
      val listener = new AggListener
      spark.sparkContext.addSparkListener(listener)
      aggs.ds = trace.span("spark.dataset")(dataset(spark, s))
      trace.span("warmup") {
        Layers.sink += VOSAggregator.build(aggs.ds, s.hashes).array.onesCount
        Layers.sink += replay(spark, s, tmpDir, "warmup", s.events.take(s.n / 50), 2, trace).sketch.array.onesCount
      }
      setupDone()

      val exact     = new Exact(s, s.n)
      val streams   = new StreamReplays(spark, s, tmpDir, trace, report)
      val queries   = new Queries(() => aggs.latest, pairs, trace, samplesPerStep = 2)
      val baselines = new Baselines(s, s.n, trace)(b =>
        report.check(s"counters.${b.name}", Checks.counters(b.cardinality, exact.sizes)))
      spark.sparkContext.setJobGroup(AggGroup, "VOSAggregator.build", interruptOnCancel = false)
      try Tasks.cycle(ctx, seconds, Seq(aggs, streams, queries, baselines))
      finally { streams.close(); spark.sparkContext.clearJobGroup() }

      val all = streams.replays
      report.attempted += aggs.buildNs.length + all.length * Batches +
        queries.samples.units + baselines.attempted
      report.metric("ingest_eps", s.n / (Layers.median(aggs.buildNs) / 1e9), "events/s")
      // A replay's time from the median micro-batch, collect and assemble:
      // one slow batch moves one sample, not the figure.
      def med(f: Replay => Seq[Long]) = Layers.median(all.flatMap(f).map(_.toDouble))
      report.metric("replay_s",
        (Batches * med(_.batchNs) + med(r => Seq(r.collectNs)) + med(r => Seq(r.assembleNs))) / 1e9, "s")
      report.metric("query_pps", queries.samples.medianRate, "pairs/s")
      report.metric("baseline_ingest_eps", baselines.eventsPerSecond, "events/s")
      streamMetrics(all.last, s.n, report)
      Layers.sketchChecks(ctx, aggs.latest, exact, pairs, queries)

      if (traced) {
        val aggJobs  = spark.sparkContext.statusTracker.getJobIdsForGroup(AggGroup).toSet
        val deadline = System.nanoTime() + 30e9.toLong
        while (listener.synchronized(!aggJobs.subsetOf(listener.ended)) && System.nanoTime() < deadline)
          Thread.sleep(20)
        listener.synchronized {
          report.metric("agg.task_run_ms", listener.taskRunMs.toDouble / aggs.buildNs.length, "ms")
          report.metric("agg.task_gc_ms", listener.taskGcMs.toDouble / aggs.buildNs.length, "ms")
        }
        probes(spark, aggs.ds, s, trace, report)
        Layers.queryProbes(aggs.latest, pairs, trace, report)
      }
      (all.last, exact)
    } finally spark.stop()
  }

  /** The stream as a cached Dataset in `Cores` partitions. The columns go
    * out by broadcast, so tasks stay small.
    */
  def dataset(spark: SparkSession, s: Stream): Dataset[EdgeEvent] = {
    import spark.implicits._
    val cols = spark.sparkContext.broadcast((s.users, s.items, s.inserts, s.events.map(_.time)))
    val ds = spark.range(0, s.n, 1, Cores).map { i =>
      val (us, is, ins, ts) = cols.value
      val e = i.toInt
      EdgeEvent(us(e), is(e), ins(e), ts(e))
    }.cache()
    ds.count()
    ds
  }

  /** One streaming replay and what it measured. */
  final class Replay(
      val sketch: VOSSketch,
      val batchNs: Vector[Long],
      val feedNs: Long,
      val collectNs: Long,
      val assembleNs: Long,
      val outBytes: Long,
      val arrayProgress: Seq[StreamingQueryProgress],
      val counterProgress: Seq[StreamingQueryProgress],
  ) {
    def arrayRows: Seq[Long]   = arrayProgress.map(_.numInputRows)
    def counterRows: Seq[Long] = counterProgress.map(_.numInputRows)
  }

  /** Last progress of each executed micro-batch, in batch order. */
  private def batches(ps: Array[StreamingQueryProgress]): Seq[StreamingQueryProgress] =
    ps.groupBy(_.batchId).values.map(_.last).toSeq.sortBy(_.batchId)

  /** One streaming replay in progress: both stateful queries over their
    * own `MemoryStream`, fed `events` in `nBatches` micro-batches. Each
    * batch is timed from `addData` until both queries have processed it.
    */
  final class StreamingRun(spark: SparkSession, s: Stream, tmp: java.nio.file.Path, tag: String,
                           events: Array[EdgeEvent], nBatches: Int, tr: Trace) {
    import spark.implicits._
    private implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    private val (arrName, cntName) = (s"vos_array_$tag", s"vos_counter_$tag")
    private val arrSrc = MemoryStream[EdgeEvent]
    private val cntSrc = MemoryStream[EdgeEvent]
    private val qa = VOSStreaming.arrayUpdates(arrSrc.toDS(), s.hashes, Cores)
      .writeStream.outputMode("update").format("memory").queryName(arrName)
      .option("checkpointLocation", tmp.resolve("checkpoints").resolve(arrName).toString).start()
    private val qc = VOSStreaming.counterUpdates(cntSrc.toDS())
      .writeStream.outputMode("update").format("memory").queryName(cntName)
      .option("checkpointLocation", tmp.resolve("checkpoints").resolve(cntName).toString).start()
    private val size    = (events.length + nBatches - 1) / nBatches
    private var batchNs = Vector.empty[Long]

    def finished: Boolean = batchNs.length == nBatches

    def nextBatch(): Unit = {
      val b     = batchNs.length
      val chunk = events.slice(b * size, math.min(events.length, (b + 1) * size)).toSeq
      val t0    = System.nanoTime()
      tr.span("stream.batch") {
        arrSrc.addData(chunk); cntSrc.addData(chunk)
        qa.processAllAvailable(); qc.processAllAvailable()
      }
      batchNs :+= System.nanoTime() - t0
    }

    /** Collect the emitted rows, assemble the sketch, stop the queries. */
    def finish(): Replay =
      try {
        val t0 = System.nanoTime()
        val (parts, users) = tr.span("stream.collect") {
          (spark.table(arrName).as[PartUpdate].collect().toSeq, spark.table(cntName).as[UserUpdate].collect().toSeq)
        }
        val t1 = System.nanoTime()
        val sketch = tr.span("stream.assemble")(VOSStreaming.assemble(s.hashes, Cores, parts, users))
        val t2 = System.nanoTime()
        val outBytes = parts.map(p => 4L + p.bytes.length + 8 + 8).sum + users.length * 24L
        new Replay(sketch, batchNs, batchNs.sum, t1 - t0, t2 - t1, outBytes,
          batches(qa.recentProgress), batches(qc.recentProgress))
      } finally stop()

    def stop(): Unit = {
      qa.stop(); qc.stop()
      spark.catalog.dropTempView(arrName); spark.catalog.dropTempView(cntName)
      ()
    }
  }

  /** A whole streaming replay of `events` in `nBatches` micro-batches. */
  def replay(spark: SparkSession, s: Stream, tmp: java.nio.file.Path, tag: String,
             events: Array[EdgeEvent], nBatches: Int, tr: Trace): Replay = {
    val run = new StreamingRun(spark, s, tmp, tag, events, nBatches, tr)
    try while (!run.finished) run.nextBatch()
    catch { case e: Throwable => run.stop(); throw e }
    run.finish()
  }

  /** Streaming figures of the last replay (per-layer). */
  private def streamMetrics(r: Replay, n: Int, report: Report): Unit = {
    def durMedian(ps: Seq[StreamingQueryProgress], key: String): Double =
      Layers.median(ps.map(p => Option(p.durationMs.get(key)).map(_.toDouble).getOrElse(0.0)))
    def stateSum(f: org.apache.spark.sql.streaming.StateOperatorProgress => Long): Double =
      Seq(r.arrayProgress, r.counterProgress).map(ps => ps.last.stateOperators.map(f).sum).sum.toDouble
    report.metric("stream.microbatch_ms", Layers.median(r.batchNs.map(_ / 1e6)), "ms")
    report.metric("stream.eps", n / (r.feedNs / 1e9), "events/s")
    report.metric("stream.microbatch_out_bytes", r.outBytes.toDouble / r.batchNs.length, "bytes")
    report.metric("stream.state_bytes", stateSum(_.memoryUsedBytes), "bytes")
    report.metric("stream.state_rows", stateSum(_.numRowsTotal), "count")
    report.metric("stream.array.add_batch_ms", durMedian(r.arrayProgress, "addBatch"), "ms")
    report.metric("stream.counter.add_batch_ms", durMedian(r.counterProgress, "addBatch"), "ms")
    report.metric("stream.planning_ms",
      durMedian(r.arrayProgress, "queryPlanning") + durMedian(r.counterProgress, "queryPlanning"), "ms")
    report.metric("stream.wal_commit_ms",
      durMedian(r.arrayProgress, "walCommit") + durMedian(r.counterProgress, "walCommit"), "ms")
    report.metric("stream.collect_ms", r.collectNs / 1e6, "ms")
    report.metric("stream.assemble_ms", r.assembleNs / 1e6, "ms")
  }

  /** Traced probes of the layers under the Spark builds, called from
    * outside: partial builds, their Kryo serialization and merge, XOR of
    * the arrays, routing, and range (de)serialization.
    */
  private def probes(spark: SparkSession, ds: Dataset[EdgeEvent], s: Stream, trace: Trace, report: Report): Unit = {
    val chunk    = (s.n + Cores - 1) / Cores
    val partials = (0 until Cores).map { p =>
      val sk = new VOSSketch(s.hashes)
      Layers.ingest(s, sk, p * chunk, math.min(s.n, (p + 1) * chunk))
      sk
    }
    val kryo  = new KryoSerializer(spark.sparkContext.getConf).newInstance()
    var bytes = 0L
    trace.span("agg.kryo_ser")(partials.foreach(p => bytes += kryo.serialize(p).remaining()))
    report.metric("agg.kryo_ser_ms", trace.totalNs("agg.kryo_ser") / 1e6, "ms")
    report.metric("agg.kryo_bytes", bytes.toDouble, "bytes")

    val arrays = partials.map(_.array.copy())
    trace.span("bitarray.xor")(arrays.tail.foreach(arrays.head.xorInPlace))
    report.metric("bitarray.xor_ms", trace.totalNs("bitarray.xor") / 1e6, "ms")
    trace.span("vos.merge")(partials.tail.foreach(partials.head.merge))
    report.metric("vos.merge_ms", trace.totalNs("vos.merge") / 1e6, "ms")

    trace.span("stream.route")(Layers.sink += VOSStreaming.route(ds, s.hashes, Cores).rdd.count())
    report.metric("stream.route_ms", trace.totalNs("stream.route") / 1e6 / Batches, "ms")

    val Repeats = 5
    trace.span("bitarray.serde") {
      for (_ <- 1 to Repeats; p <- 0 until Cores) {
        val len = VOSStreaming.partLength(s.hashes.m, Cores, p)
        Layers.sink += BitArray.fromBytes(len, new BitArray(len).toBytes).onesCount
      }
    }
    report.metric("bitarray.serde_ms", trace.totalNs("bitarray.serde") / 1e6 / Repeats, "ms")
  }
}
