package vosbench

/** What a workload is handed for one run.
  *
  * @param seconds how long the timed part of the run measures
  * @param tmpDir  scratch space inside the checkout (Spark's local and
  *                checkpoint directories)
  */
final case class Ctx(seed: Long, seconds: Int, trace: Trace, report: Report, tmpDir: java.nio.file.Path) {
  def traced: Boolean = trace.enabled

  /** Set-up ends here: record the time since the JVM started. */
  def setupDone(): Unit = report.metric("setup_s", Heap.uptimeSeconds(), "s")
}

trait Workload {
  def name: String
  def run(ctx: Ctx): Unit
}

object Workload {
  val all: Seq[Workload] = Seq(IngestPaperScale, TrackedPairs, SparkBuild)
}
