package vosbench

import scala.collection.mutable

/** In-memory span recorder for the traced run.
  *
  * A span is (id, name, parent, start, end) around a *block* of calls into
  * one layer — a pass, a checkpoint's queries, a batch — never around a
  * single ~100 ns call. Counts are recorded at the same boundaries, so a
  * layer's per-call cost is its spans' self time over its count. With
  * tracing off, [[span]] runs the body and records nothing.
  */
final class Trace(val enabled: Boolean) {
  import Trace.Span

  private val spans  = mutable.ArrayBuffer.empty[Span]
  private val open   = mutable.Stack.empty[Int]
  private val counts = mutable.LinkedHashMap.empty[String, Long]

  /** While set, nothing is recorded: the traced run times one round of its
    * job this way to measure the tracing overhead.
    */
  var paused = false

  def spanCount: Int = spans.length

  /** Run `body` inside a span named `name`. */
  def span[A](name: String)(body: => A): A =
    if (!enabled || paused) body
    else {
      val s = Span(spans.length, name, open.headOption.getOrElse(-1), System.nanoTime(), 0L)
      spans += s
      open.push(s.id)
      try body
      finally { s.end = System.nanoTime(); open.pop(); () }
    }

  /** Add `n` to the count kept under `name`. */
  def count(name: String, n: Long): Unit =
    if (enabled && !paused) counts.update(name, counts.getOrElse(name, 0L) + n)

  def counted(name: String): Long = counts.getOrElse(name, 0L)

  /** Summed duration (ns) of every span named `name`. */
  def totalNs(name: String): Long =
    spans.iterator.filter(_.name == name).map(s => s.end - s.start).sum

  /** Summed self time (ns) of spans named `name`: each span's duration
    * minus the part its child spans cover.
    */
  def selfNs(name: String): Long = {
    val children = spans.iterator.filter(s => s.parent >= 0 && spans(s.parent).name == name)
    totalNs(name) - children.map(s => s.end - s.start).sum
  }

  /** Per-call cost in ns: self time of `name` over its count. */
  def perCallNs(name: String): Double = {
    val c = counted(name)
    if (c == 0) 0.0 else selfNs(name).toDouble / c
  }

  /** Write spans (one JSON object per line) and a per-name summary. */
  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val out = new java.io.PrintWriter(java.nio.file.Files.newBufferedWriter(path))
    try {
      val t0 = spans.headOption.map(_.start).getOrElse(0L)
      spans.foreach { s =>
        out.println(s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},""" +
          s""""start_ns":${s.start - t0},"end_ns":${s.end - t0}}""")
      }
      spans.map(_.name).distinct.foreach { n =>
        out.println(s"""{"summary":"$n","total_ns":${totalNs(n)},"self_ns":${selfNs(n)},""" +
          s""""count":${counted(n)}}""")
      }
    } finally out.close()
  }
}

object Trace {
  private final case class Span(id: Int, name: String, parent: Int, start: Long, var end: Long)
}
