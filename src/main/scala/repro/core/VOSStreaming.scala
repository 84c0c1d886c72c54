package repro.core

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.stream.EdgeEvent

/** VOS as a Structured Streaming *stateful operator* — the repro band's
  * target layering: "VOS sketch update as a Structured Streaming stateful
  * operator processing edge insertion/deletion events with O(1) per-edge
  * updates".
  *
  * Every edge touches exactly one bit of the shared array,
  * `A[f_{ψ(i)}(u)]`, so the array parallelizes by *bit range*: position
  * space `[0, m)` is split into `numPartitions` contiguous ranges, each
  * owned by one `flatMapGroupsWithState` group whose state is that range's
  * bits plus its ones-count. An edge is routed to the one group owning its
  * position and costs a single XOR there — O(1) per edge, state
  * (de)serialization amortized over each micro-batch.
  *
  * Per-user counters `n_u` are a second stateful query keyed by user.
  *
  * Both operators emit their updated state each micro-batch tagged with a
  * monotone per-group `version`; [[VOSStreaming.assemble]] keeps the
  * latest version per group and reconstructs the full [[VOSSketch]], which
  * tests assert is bit-identical to the sequential build.
  */
object VOSStreaming {

  /** Edge routed to the bit-range partition owning its array position. */
  final case class RoutedEdge(part: Int, pos: Int, user: Long, insert: Boolean)

  /** State/output of one bit-range group: the range's bits (little-endian
    * words), its ones-count, and a monotone version.
    */
  final case class PartState(bytes: Array[Byte], ones: Long, version: Long)
  final case class PartUpdate(part: Int, bytes: Array[Byte], ones: Long, version: Long)

  /** Output of the per-user counter operator. */
  final case class UserUpdate(user: Long, n: Long, version: Long)

  /** Bits per range (last range may be shorter). */
  def bitsPerPart(m: Int, numPartitions: Int): Int = {
    require(numPartitions > 0 && numPartitions <= m,
      s"numPartitions $numPartitions out of [1,$m]")
    (m + numPartitions - 1) / numPartitions
  }

  /** Length of range `part` in bits. */
  def partLength(m: Int, numPartitions: Int, part: Int): Int = {
    val bpp = bitsPerPart(m, numPartitions)
    math.min(bpp, m - part * bpp)
  }

  /** Route each edge to its owning bit-range partition. */
  def route(events: Dataset[EdgeEvent], hashes: VOSHashes, numPartitions: Int): Dataset[RoutedEdge] = {
    import events.sparkSession.implicits._
    val bpp = bitsPerPart(hashes.m, numPartitions)
    events.map { e =>
      val pos = hashes.position(e.user, e.item)
      RoutedEdge(pos / bpp, pos, e.user, e.insert)
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
    val m   = hashes.m
    val bpp = bitsPerPart(m, numPartitions)
    route(events, hashes, numPartitions)
      .groupByKey(_.part)
      .flatMapGroupsWithState[PartState, PartUpdate](
        OutputMode.Update, GroupStateTimeout.NoTimeout) {
        (part: Int, edges: Iterator[RoutedEdge], state: GroupState[PartState]) =>
          val len  = math.min(bpp, m - part * bpp)
          val base = part * bpp
          val (bits, version) = state.getOption match {
            case Some(s) => (BitArray.fromBytes(len, s.bytes), s.version)
            case None    => (new BitArray(len), 0L)
          }
          edges.foreach(e => bits.flip(e.pos - base))
          val next = PartState(bits.toBytes, bits.onesCount, version + 1)
          state.update(next)
          Iterator.single(PartUpdate(part, next.bytes, next.ones, next.version))
      }
  }

  /** The stateful per-user counter operator. */
  def counterUpdates(events: Dataset[EdgeEvent]): Dataset[UserUpdate] = {
    import events.sparkSession.implicits._
    events
      .groupByKey(_.user)
      .flatMapGroupsWithState[(Long, Long), UserUpdate](
        OutputMode.Update, GroupStateTimeout.NoTimeout) {
        (user: Long, es: Iterator[EdgeEvent], state: GroupState[(Long, Long)]) =>
          val (n0, v0) = state.getOption.getOrElse((0L, 0L))
          var n = n0
          es.foreach(e => n += (if (e.insert) 1L else -1L))
          state.update((n, v0 + 1))
          Iterator.single(UserUpdate(user, n, v0 + 1))
      }
  }

  /** Reassemble a full [[VOSSketch]] from the emitted updates (keeping the
    * latest version per group — a memory-sink table accumulates one row
    * per group per micro-batch).
    */
  def assemble(
      hashes: VOSHashes,
      numPartitions: Int,
      partUpdates: Seq[PartUpdate],
      userUpdates: Seq[UserUpdate],
  ): VOSSketch = {
    val sketch = new VOSSketch(hashes)
    val bpp    = bitsPerPart(hashes.m, numPartitions)
    partUpdates
      .groupBy(_.part)
      .foreach { case (part, ups) =>
        val latest = ups.maxBy(_.version)
        val len    = partLength(hashes.m, numPartitions, part)
        val bits   = BitArray.fromBytes(len, latest.bytes)
        val base   = part * bpp
        var j = 0
        while (j < len) {
          if (bits.get(j) == 1) sketch.array.flip(base + j)
          j += 1
        }
      }
    userUpdates
      .groupBy(_.user)
      .foreach { case (user, ups) =>
        val latest = ups.maxBy(_.version)
        sketch.nU.add(user, latest.n)
      }
    sketch
  }
}
