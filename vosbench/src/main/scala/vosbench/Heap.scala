package vosbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** JVM-side measurements: retained heap, allocation and GC time. */
object Heap {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).toSeq
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap in use right after a full collection, as the collector itself
    * reports it per pool (the live heap, without what the calling code has
    * allocated since).
    */
  def usedAfterGc(): Long = {
    System.gc()
    heapPools.map(p => Option(p.getCollectionUsage).map(_.getUsed).getOrElse(0L)).sum
  }

  /** Heap retained by the object held in `holder(0)`: the heap in use
    * after GC with it, minus the heap in use after GC once it is dropped.
    * The caller must hold no other reference to it.
    */
  def retained(holder: Array[AnyRef]): Long = {
    val withIt = usedAfterGc()
    holder(0) = null
    withIt - usedAfterGc()
  }

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Total collection time (ms) of all collectors so far. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Time since the JVM started, in seconds. */
  def uptimeSeconds(): Double = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0
}
