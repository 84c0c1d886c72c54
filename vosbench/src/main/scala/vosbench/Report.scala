package vosbench

import scala.collection.mutable

/** What one run prints: correctness, operation counts and named metrics.
  * The last line of standard output is [[json]].
  */
final class Report {
  private val metrics  = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val failures = mutable.ArrayBuffer.empty[String]

  /** Operations attempted; each is an update, a pair estimate, a build or
    * a micro-batch. None may fail: an exception ends the run without a
    * result, so the result's `failed` is 0.
    */
  var attempted = 0L

  def metric(name: String, value: Double, unit: String): Unit = {
    if (value.isNaN || value.isInfinite) failures += s"metric $name is not finite"
    metrics.update(name, (value, unit))
  }

  /** Record the outcome of one correctness check (`None` = it passed). */
  def check(name: String, outcome: Option[String]): Unit =
    outcome.foreach { why =>
      failures += s"$name: $why"
      Console.err.println(s"[vosbench] CHECK FAILED $name: $why")
    }

  def value(name: String): Option[Double] = metrics.get(name).map(_._1)

  def correct: Boolean = failures.isEmpty

  /** The result line, with the `wanted` metrics (name, unit); one not
    * measured by this run reads 0.
    */
  def json(wanted: Seq[(String, String)]): String = {
    val ms = wanted.map { case (n, u) =>
      val v = metrics.get(n).map(_._1).filterNot(x => x.isNaN || x.isInfinite).getOrElse(0.0)
      s""""$n": {"value": $v, "unit": "$u"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": 0, "metrics": {${ms.mkString(", ")}}}"""
  }
}
