package repro.jobs

import repro.eval.{BenchTables, EvalConfig}

/** spark-submit entrypoint reproducing Figure 3(b)/(d) (tables T5 and T6):
  * end-of-stream AAPE and ARMSE on all four dataset analogs, k = 100.
  *
  * Usage: `spark-submit --class repro.jobs.AllDatasetsJob repro.jar [k]`
  */
object AllDatasetsJob {
  def main(args: Array[String]): Unit = {
    val k    = args.headOption.map(_.toInt).getOrElse(100)
    val rows = BenchTables.accuracyAllDatasets(cfg = EvalConfig(kBaseline = k))
    println(BenchTables.renderAccuracyAllDatasets(
      rows, "AAPE", s"T5 (Fig 3b): end-of-stream AAPE, k=$k"))
    println(BenchTables.renderAccuracyAllDatasets(
      rows, "ARMSE", s"T6 (Fig 3d): end-of-stream ARMSE, k=$k"))
  }
}
