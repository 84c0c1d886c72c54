package repro.core

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.{Dataset, SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode, StreamingQuery}
import repro.stream.EdgeEvent

/** VOS as a Structured Streaming *stateful operator* — the repro band's
  * target layering: "VOS sketch update as a Structured Streaming stateful
  * operator processing edge insertion/deletion events with O(1) per-edge
  * updates".
  *
  * Every edge touches exactly one bit of the shared array,
  * `A[f_{ψ(i)}(u)]`, so the array parallelizes by *bit range*: position
  * space `[0, m)` is split into `numPartitions` contiguous ranges of whole
  * 64-bit words, each owned by one `flatMapGroupsWithState` group whose
  * state is that range's bits. An edge is routed to the one group owning its
  * position and costs a single XOR there — O(1) per edge, state
  * (de)serialization amortized over each micro-batch.
  *
  * Per-user counters `n_u` are a second stateful query keyed by user.
  *
  * Both operators emit their updated state each micro-batch tagged with a
  * monotone per-group `version`; [[VOSStreaming.assemble]] keeps the
  * latest version per group and reconstructs the full [[VOSSketch]], which
  * tests assert is bit-identical to the sequential build.
  * [[VOSStreaming.run]] drives both queries over an in-memory stream.
  */
object VOSStreaming {

  /** Edge routed to the bit-range partition owning its array position. */
  final case class RoutedEdge(part: Int, pos: Int)

  /** State and output of one bit-range group: the range's bits
    * (little-endian words) and a monotone version.
    */
  final case class PartUpdate(part: Int, bytes: Array[Byte], version: Long)

  /** State and output of the per-user counter operator. */
  final case class UserUpdate(user: Long, n: Long, version: Long)

  /** Bits per range, a multiple of 64 so that every range starts on a word
    * of `A` (the last range may be shorter, and ranges past `m` are empty).
    * Saturates at `Int.MaxValue` only for a single range over more than
    * 2³¹ − 64 bits, which starts at 0 anyway.
    */
  def bitsPerPart(m: Int, numPartitions: Int): Int = {
    require(numPartitions > 0 && numPartitions <= m,
      s"numPartitions $numPartitions out of [1,$m]")
    val words = (m + 63L) >>> 6
    math.min(64L * ((words + numPartitions - 1) / numPartitions), Int.MaxValue.toLong).toInt
  }

  /** Length of range `part` in bits; 0 for a range that starts past `m`. */
  def partLength(m: Int, numPartitions: Int, part: Int): Int = {
    val bpp = bitsPerPart(m, numPartitions)
    math.max(0L, math.min(bpp.toLong, m - part.toLong * bpp)).toInt
  }

  /** Route each edge to its owning bit-range partition. */
  def route(events: Dataset[EdgeEvent], hashes: VOSHashes, numPartitions: Int): Dataset[RoutedEdge] = {
    import events.sparkSession.implicits._
    val bpp = bitsPerPart(hashes.m, numPartitions)
    events.map { e =>
      val pos = hashes.position(e.user, e.item)
      RoutedEdge(pos / bpp, pos)
    }
  }

  /** The stateful array operator: per bit-range group state, O(1) XOR per
    * edge. Works identically on a streaming or batch Dataset (batch runs
    * it as a single "micro-batch" with empty initial state).
    */
  def arrayUpdates(
      events: Dataset[EdgeEvent],
      hashes: VOSHashes,
      numPartitions: Int,
  ): Dataset[PartUpdate] = {
    import events.sparkSession.implicits._
    val bpp = bitsPerPart(hashes.m, numPartitions)
    route(events, hashes, numPartitions)
      .groupByKey(_.part)
      .flatMapGroupsWithState[PartUpdate, PartUpdate](
        OutputMode.Update, GroupStateTimeout.NoTimeout) {
        (part: Int, edges: Iterator[RoutedEdge], state: GroupState[PartUpdate]) =>
          val len  = partLength(hashes.m, numPartitions, part)
          val base = part * bpp
          val prev = state.getOption
          val bits = prev.fold(new BitArray(len))(p => BitArray.fromBytes(len, p.bytes))
          edges.foreach(e => bits.flip(e.pos - base))
          val next = PartUpdate(part, bits.toBytes, prev.fold(0L)(_.version) + 1)
          state.update(next)
          Iterator.single(next)
      }
  }

  /** The stateful per-user counter operator. */
  def counterUpdates(events: Dataset[EdgeEvent]): Dataset[UserUpdate] = {
    import events.sparkSession.implicits._
    events
      .groupByKey(_.user)
      .flatMapGroupsWithState[UserUpdate, UserUpdate](
        OutputMode.Update, GroupStateTimeout.NoTimeout) {
        (user: Long, es: Iterator[EdgeEvent], state: GroupState[UserUpdate]) =>
          val prev = state.getOption.getOrElse(UserUpdate(user, 0L, 0L))
          var n    = prev.n
          es.foreach(e => n += (if (e.insert) 1L else -1L))
          val next = UserUpdate(user, n, prev.version + 1)
          state.update(next)
          Iterator.single(next)
      }
  }

  /** Reassemble a full [[VOSSketch]] from the emitted updates, keeping the
    * latest version per group (a memory-sink table accumulates one row per
    * group per micro-batch). Each range's bytes are copied to its word
    * offset in one m-bit buffer, which is XORed into the empty array once.
    */
  def assemble(
      hashes: VOSHashes,
      numPartitions: Int,
      partUpdates: Seq[PartUpdate],
      userUpdates: Seq[UserUpdate],
  ): VOSSketch = {
    val sketch       = new VOSSketch(hashes)
    val bytesPerPart = bitsPerPart(hashes.m, numPartitions) / 8
    val buf          = new Array[Byte](8 * (((hashes.m - 1) >>> 6) + 1))
    partUpdates.groupBy(_.part).values.map(_.maxBy(_.version)).foreach { u =>
      val len = partLength(hashes.m, numPartitions, u.part)
      require(u.bytes.length == 8 * ((len + 63) / 64),
        s"part ${u.part}: ${u.bytes.length} bytes for $len bits")
      System.arraycopy(u.bytes, 0, buf, u.part * bytesPerPart, u.bytes.length)
    }
    sketch.array.xorInPlace(BitArray.fromBytes(hashes.m, buf))
    userUpdates.groupBy(_.user).values.map(_.maxBy(_.version)).foreach(u => sketch.nU.add(u.user, u.n))
    sketch
  }

  /** Distinguishes the memory tables of [[run]]s in one JVM. */
  private val runs = new AtomicLong

  /** Build the sketch of `events` with both stateful queries, each fed from
    * its own `MemoryStream` in exactly `nBatches` micro-batches of
    * ⌈n/nBatches⌉ events (the last ones shorter or empty). The queries are
    * stopped and their memory tables dropped even when a batch fails.
    */
  def run(
      spark: SparkSession,
      hashes: VOSHashes,
      numPartitions: Int,
      events: IndexedSeq[EdgeEvent],
      nBatches: Int,
  ): VOSSketch = {
    require(nBatches > 0, s"nBatches must be positive, got $nBatches")
    import spark.implicits._
    implicit val sqlCtx: SQLContext = spark.sqlContext
    val id                 = runs.incrementAndGet()
    val (arrName, cntName) = (s"vos_array_$id", s"vos_counter_$id")
    val (arrSrc, cntSrc)   = (MemoryStream[EdgeEvent], MemoryStream[EdgeEvent])
    def toMemory(out: Dataset[_], name: String): StreamingQuery =
      out.writeStream.outputMode("update").format("memory").queryName(name).start()
    var queries = List.empty[StreamingQuery]
    try {
      queries ::= toMemory(arrayUpdates(arrSrc.toDS(), hashes, numPartitions), arrName)
      queries ::= toMemory(counterUpdates(cntSrc.toDS()), cntName)
      val size = (events.length + nBatches - 1) / nBatches
      for (b <- 0 until nBatches) {
        val chunk = events.slice(b * size, (b + 1) * size)
        arrSrc.addData(chunk); cntSrc.addData(chunk)
        queries.foreach(_.processAllAvailable())
      }
      assemble(hashes, numPartitions,
        spark.table(arrName).as[PartUpdate].collect().toSeq,
        spark.table(cntName).as[UserUpdate].collect().toSeq)
    } finally {
      queries.foreach(_.stop())
      Seq(arrName, cntName).foreach(spark.catalog.dropTempView)
    }
  }
}
