package vosbench

import java.nio.file.Paths

/** Entry point of one benchmark run:
  *
  * {{{
  *   vosbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir> --tmp <dir>
  *   vosbench.Main --selftest --tmp <dir>
  * }}}
  *
  * The last line of standard output is the run's JSON result. A traced
  * run also writes its spans to `<out>/trace-<workload>-<seed>.jsonl`.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String): String = opts.getOrElse(k, sys.error(s"missing --$k"))
    val tmp = Paths.get(opt("tmp"))
    if (args.contains("--selftest")) sys.exit(if (SelfTest.run(tmp)) 0 else 1)

    val workload = Workload.all.find(_.name == opt("workload")).getOrElse(
      sys.error(s"unknown workload ${opt("workload")}; known: ${Workload.all.map(_.name).mkString(", ")}"))
    val seed   = opt("seed").toLong
    val traced = opt("trace") == "1"
    val trace  = new Trace(traced)
    val report = new Report
    workload.run(Ctx(seed, opt("seconds").toInt, trace, report, tmp))

    if (traced) {
      report.metric("trace.spans", trace.spanCount.toDouble, "count")
      trace.write(Paths.get(opt("out")).resolve(s"trace-${workload.name}-$seed.jsonl"))
    }
    val wanted  = if (traced) Metrics.perLayer else Metrics.endToEnd
    val missing = wanted.map(_._1).filter(report.value(_).isEmpty)
    if (!traced && missing.nonEmpty) sys.error(s"${workload.name} did not measure ${missing.mkString(", ")}")
    println(report.json(wanted))
  }
}
