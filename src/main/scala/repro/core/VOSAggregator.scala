package repro.core

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.expressions.Aggregator
import repro.stream.EdgeEvent

/** Distributed VOS build as a Spark typed [[Aggregator]] (Catalyst's
  * `TypedImperativeAggregate` path once planned).
  *
  * VOS is a natural distributed aggregation: the per-edge update is a
  * single XOR into the shared array plus a counter bump, the array state
  * merges by XOR and the counters by sum, and XOR/sum are associative and
  * commutative — so partial sketches built independently on each partition
  * combine into *exactly* the sketch a sequential pass produces
  * (order-independence is a property of the odd sketch, § IV: "the value
  * of A ... is irrelevant with the order of occurred users").
  *
  * Usage: `events.select(VOSAggregator.column(hashes)).head()`.
  *
  * @param hashes hash bundle fixing (k, m, seed); all partials must share it
  */
final class VOSAggregator(hashes: VOSHashes)
    extends Aggregator[EdgeEvent, VOSSketch, VOSSketch] {

  override def zero: VOSSketch = new VOSSketch(hashes)

  override def reduce(b: VOSSketch, e: EdgeEvent): VOSSketch = { b.update(e); b }

  override def merge(a: VOSSketch, b: VOSSketch): VOSSketch = a.merge(b)

  override def finish(reduction: VOSSketch): VOSSketch = reduction

  // The sketch is an opaque mutable structure → kryo-serialized buffer.
  override def bufferEncoder: Encoder[VOSSketch] = Encoders.kryo[VOSSketch]
  override def outputEncoder: Encoder[VOSSketch] = Encoders.kryo[VOSSketch]
}

object VOSAggregator {

  /** Column aggregating a `Dataset[EdgeEvent]` into one VOS sketch. */
  def column(hashes: VOSHashes): org.apache.spark.sql.TypedColumn[EdgeEvent, VOSSketch] =
    new VOSAggregator(hashes).toColumn

  /** Build the sketch of `events` distributed across the cluster and
    * return it to the driver. Fails before the job starts if the buffer
    * sketch cannot fit Kryo's buffer (see [[requireFitsKryoBuffer]]).
    */
  def build(events: Dataset[EdgeEvent], hashes: VOSHashes): VOSSketch = {
    val conf = events.sparkSession.sparkContext.getConf
    requireFitsKryoBuffer(hashes, conf.getSizeAsMb(KryoBufferMax, "64m") * 1024 * 1024)
    events.select(column(hashes)).head()
  }

  /** Spark setting that caps the bytes of one Kryo-serialized object. */
  val KryoBufferMax = "spark.kryoserializer.buffer.max"

  /** Lower bound on the Kryo-serialized bytes of a buffer sketch: its bit
    * array (`m/8` bytes) plus an empty counter store.
    */
  def minSerializedBytes(hashes: VOSHashes): Long =
    8L * ((hashes.m.toLong + 63) / 64) + new CounterMap().slotBytes

  /** Throw if a buffer sketch for `hashes` cannot fit a Kryo buffer of at
    * most `bufferMaxBytes`: the job would otherwise fail inside a task
    * with `KRYO_BUFFER_OVERFLOW`.
    */
  def requireFitsKryoBuffer(hashes: VOSHashes, bufferMaxBytes: Long): Unit = {
    val need = minSerializedBytes(hashes)
    if (need > bufferMaxBytes)
      throw new IllegalArgumentException(
        s"a VOS sketch with m = ${hashes.m} bits serializes to at least $need bytes, more than " +
          s"$KryoBufferMax = $bufferMaxBytes bytes; set $KryoBufferMax to at least " +
          s"${(need + (1 << 20) - 1) >> 20}m")
  }
}
