package repro.jobs

import repro.eval.{BenchTables, EvalConfig, Harness}
import repro.stream.DatasetSpec

/** spark-submit entrypoint reproducing Figure 3(a)/(c) (tables T3 and T4):
  * AAPE of ŝ and ARMSE of Ĵ over time on the YouTube analog, k = 100.
  *
  * Usage: `spark-submit --class repro.jobs.AccuracyJob repro.jar [k]`
  */
object AccuracyJob {
  def main(args: Array[String]): Unit = {
    val k    = args.headOption.map(_.toInt).getOrElse(100)
    val rows = Harness.evaluate(DatasetSpec.youtube, EvalConfig(kBaseline = k))
    println(BenchTables.renderAccuracyOverTime(
      rows, "AAPE", s"T3 (Fig 3a): AAPE of s-hat over time, ${DatasetSpec.youtube.name}, k=$k"))
    println(BenchTables.renderAccuracyOverTime(
      rows, "ARMSE", s"T4 (Fig 3c): ARMSE of J-hat over time, ${DatasetSpec.youtube.name}, k=$k"))
  }
}
