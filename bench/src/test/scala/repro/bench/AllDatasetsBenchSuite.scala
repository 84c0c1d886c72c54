package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{BenchTables, EvalConfig}
import repro.stream.DatasetSpec

/** T5 + T6 (paper Figure 3(b)/(d)): end-of-stream accuracy on all four
  * dataset analogs at k = 100.
  *
  * Paper claim reproduced here: VOS is the most accurate method on every
  * dataset, for both the common-item count (AAPE) and the Jaccard
  * coefficient (ARMSE).
  */
class AllDatasetsBenchSuite extends AnyFunSuite {

  private val cfg = EvalConfig(kBaseline = 100)
  private lazy val rows = BenchTables.accuracyAllDatasets(cfg = cfg)

  test("T5 (Fig 3b): end-of-stream AAPE on all datasets, k=100") {
    println(BenchTables.renderAccuracyAllDatasets(rows, "AAPE", "T5 (Fig 3b): end-of-stream AAPE, k=100"))
    assert(rows.map(_.dataset).distinct.size == 4)
    assert(rows.size == 4 * 4)
  }

  test("T6 (Fig 3d): end-of-stream ARMSE on all datasets, k=100") {
    println(BenchTables.renderAccuracyAllDatasets(rows, "ARMSE", "T6 (Fig 3d): end-of-stream ARMSE, k=100"))
    assert(rows.forall(r => !r.armse.isNaN))
  }

  test("T5/T6 shape: VOS wins on every dataset") {
    DatasetSpec.all.map(_.name).foreach { ds =>
      def of(m: String) = rows.find(r => r.dataset == ds && r.method == m).get
      for (m <- Seq("MinHash", "OPH", "RP")) {
        assert(of("VOS").aape < of(m).aape,
          s"$ds: VOS AAPE ${of("VOS").aape} !< $m ${of(m).aape}")
        assert(of("VOS").armse < of(m).armse,
          s"$ds: VOS ARMSE ${of("VOS").armse} !< $m ${of(m).armse}")
      }
    }
  }

  test("T5/T6 shape: RP pays its independent-sampler variance everywhere") {
    DatasetSpec.all.map(_.name).foreach { ds =>
      def of(m: String) = rows.find(r => r.dataset == ds && r.method == m).get
      assert(of("RP").aape > 2 * of("VOS").aape,
        s"$ds: RP ${of("RP").aape} not ≫ VOS ${of("VOS").aape}")
    }
  }
}
