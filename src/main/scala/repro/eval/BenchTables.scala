package repro.eval

import repro.core.SimilaritySketch
import repro.eval.RuntimeMeasure.RuntimeRow
import repro.stream.{DatasetSpec, DynamicStreamGen, EdgeEvent, GraphGen}

/** Producers and renderers for the evaluation tables T1–T6 (DESIGN.md
  * § 6) — the numbers behind the paper's Figures 2 and 3; the rows of
  * T3/T4 are those of [[Harness.evaluate]]. Shared between the `bench/`
  * suites and the `jobs/` spark-submit entrypoints so both print identical
  * rows.
  */
object BenchTables {

  /** k sweep of Figure 2(a). */
  val RuntimeKs: Seq[Int] = Seq(1, 10, 100, 1000, 10000, 100000)

  /** VOS's shared-array size in the runtime rows: update cost is
    * independent of m, and the paper's m = 32·k·|U| at k = 10⁵ would not
    * fit an `Int`-addressed array; 2²⁶ bits keeps allocation trivial.
    */
  private val RuntimeM = 1 << 26

  /** The roster of [[Harness.methods]] at `k` registers, with VOS over
    * [[RuntimeM]] bits.
    */
  private def roster(k: Int, seed: Long): Seq[() => SimilaritySketch] =
    Harness.methods(EvalConfig(kBaseline = k, seed = seed), RuntimeM)

  /** The roster's names: the runtime tables' columns. */
  private val MethodNames: Seq[String] = Harness.methods(EvalConfig(kBaseline = 1), 1).map(_().name)

  /** Time every method's `update` once at `k` and discard the rows. The
    * `update` call site in [[RuntimeMeasure.measure]] has then seen every
    * method before the first row that counts; otherwise the first cell
    * (VOS at the first k) is timed through a call site specialised to
    * `VOSSketch` alone and reads low against the rest of its column.
    */
  private def warmCallSite(k: Int, stream: IndexedSeq[EdgeEvent], seed: Long): Unit =
    roster(k, seed).foreach(RuntimeMeasure.measure(k, _, stream))

  /** T1 (Fig 2a): ns/edge vs k on one dataset, all methods. */
  def runtimeVsK(spec: DatasetSpec = DatasetSpec.youtube,
                 ks: Seq[Int] = RuntimeKs,
                 seed: Long = 42L): Seq[RuntimeRow] = {
    val stream = DynamicStreamGen.generate(GraphGen.baseEdges(spec), seed = seed)
    ks.headOption.foreach(warmCallSite(_, stream, seed))
    ks.flatMap(k => roster(k, seed).map(RuntimeMeasure.measure(k, _, stream)))
  }

  /** T2 (Fig 2b): ns/edge at one k for every dataset, all methods. */
  def runtimeAllDatasets(k: Int = 100000,
                         specs: Seq[DatasetSpec] = DatasetSpec.all,
                         seed: Long = 42L): Seq[(String, RuntimeRow)] =
    specs.zipWithIndex.flatMap { case (spec, i) =>
      val stream = DynamicStreamGen.generate(GraphGen.baseEdges(spec), seed = seed)
      if (i == 0) warmCallSite(k, stream, seed)
      roster(k, seed).map(fresh => (spec.name, RuntimeMeasure.measure(k, fresh, stream)))
    }

  /** T5+T6 (Fig 3b/3d): end-of-stream accuracy on every dataset, from one
    * checkpoint at the stream's end.
    */
  def accuracyAllDatasets(specs: Seq[DatasetSpec] = DatasetSpec.all,
                          cfg: EvalConfig = EvalConfig()): Seq[AccuracyRow] =
    specs.flatMap(Harness.evaluate(_, cfg.copy(checkpoints = 1)))

  // ---- rendering ----

  /** One table line per `(key cells, rows)` of `lines`, with a column per
    * method: the value of that method's first row, or NaN if it has none.
    */
  private def pivot[R](title: String, keyHeader: Seq[String], methods: Seq[String], unit: String,
                       lines: Seq[(Seq[String], Seq[R])])(method: R => String, value: R => Double): String =
    TableFmt.render(
      title,
      keyHeader ++ methods.map(m => s"$m $unit"),
      lines.map { case (key, rs) =>
        key ++ methods.map(m => TableFmt.fmt(rs.find(method(_) == m).map(value).getOrElse(Double.NaN)))
      },
    )

  private def accuracy(metric: String)(r: AccuracyRow): Double =
    if (metric == "AAPE") r.aape else r.armse

  def renderRuntimeVsK(rows: Seq[RuntimeRow], title: String): String =
    pivot(title, Seq("k"), MethodNames, "ns/edge",
      rows.groupBy(_.k).toSeq.sortBy(_._1).map { case (k, rs) => (Seq(k.toString), rs) },
    )(_.method, _.nsPerEdge)

  def renderRuntimeAllDatasets(rows: Seq[(String, RuntimeRow)], title: String): String =
    pivot(title, Seq("dataset"), MethodNames, "ns/edge",
      rows.map(_._1).distinct.map(ds => (Seq(ds), rows.collect { case (`ds`, r) => r })),
    )(_.method, _.nsPerEdge)

  def renderAccuracyOverTime(rows: Seq[AccuracyRow], metric: String, title: String): String =
    pivot(title, Seq("checkpoint", "t"), rows.map(_.method).distinct, metric,
      rows.groupBy(_.checkpoint).toSeq.sortBy(_._1).map { case (cp, rs) =>
        (Seq(cp.toString, rs.head.time.toString), rs)
      },
    )(_.method, accuracy(metric))

  def renderAccuracyAllDatasets(rows: Seq[AccuracyRow], metric: String, title: String): String =
    pivot(title, Seq("dataset"), rows.map(_.method).distinct, metric,
      rows.map(_.dataset).distinct.map(ds => (Seq(ds), rows.filter(_.dataset == ds))),
    )(_.method, accuracy(metric))
}
