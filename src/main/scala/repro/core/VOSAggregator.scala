package repro.core

import org.apache.spark.sql.Dataset
import repro.stream.EdgeEvent

/** Distributed VOS build in one Spark map stage.
  *
  * VOS is a natural distributed aggregation: the per-edge update is a
  * single XOR into the shared array plus a counter bump, the array state
  * merges by XOR and the counters by sum, and XOR/sum are associative and
  * commutative — so partial sketches built independently on each partition
  * combine into *exactly* the sketch a sequential pass produces
  * (order-independence is a property of the odd sketch, § IV: "the value
  * of A ... is irrelevant with the order of occurred users").
  *
  * Each partition folds its edges into one partial sketch, the partials
  * come back to the driver as task results, and the driver merges each as
  * it arrives. There is no shuffle and no second stage.
  */
object VOSAggregator {

  /** Build the sketch of `events` distributed across the cluster and
    * return it to the driver. Fails before the job starts if the partials
    * cannot fit the driver's result budget (see [[requireFitsResultSize]]).
    */
  def build(events: Dataset[EdgeEvent], hashes: VOSHashes): VOSSketch = {
    val rdd = events.rdd
    val conf = events.sparkSession.sparkContext.getConf
    requireFitsResultSize(hashes, rdd.getNumPartitions, conf.getSizeAsBytes(MaxResultSize, "1g"))
    if (rdd.getNumPartitions == 0) new VOSSketch(hashes)
    else rdd.mapPartitions(edges => Iterator.single(VOSSketch.build(hashes, edges))).reduce(_ merge _)
  }

  /** Spark setting that caps the total serialized bytes of one job's task
    * results; 0 means unlimited.
    */
  val MaxResultSize = "spark.driver.maxResultSize"

  /** Throw if `numPartitions` partials for `hashes` cannot fit a result
    * budget of `maxResultSize` bytes (0 = unlimited): each partial carries
    * at least its `8·⌈m/64⌉` bytes of array words, and the job would
    * otherwise fail once their total passes the budget.
    */
  def requireFitsResultSize(hashes: VOSHashes, numPartitions: Int, maxResultSize: Long): Unit = {
    val need = numPartitions * 8L * ((hashes.m.toLong + 63) / 64)
    if (maxResultSize > 0 && need > maxResultSize)
      throw new IllegalArgumentException(
        s"$numPartitions VOS partials with m = ${hashes.m} bits return at least $need bytes to the " +
          s"driver, more than $MaxResultSize = $maxResultSize bytes; set $MaxResultSize to at least " +
          s"${(need + (1 << 20) - 1) >> 20}m, or 0 for no limit")
  }
}
