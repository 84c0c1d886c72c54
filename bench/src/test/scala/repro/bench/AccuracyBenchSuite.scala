package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{BenchTables, EvalConfig, Harness}
import repro.stream.DatasetSpec

/** T3 + T4 (paper Figure 3(a)/(c)): accuracy over time on the YouTube
  * analog at k = 100, memory parity m = 32·k·|U| bits, λ = 2.
  *
  * Paper claims reproduced here: VOS has the lowest AAPE (ŝ) and ARMSE
  * (Ĵ) at every checkpoint once deletions have accumulated, because
  * MinHash/OPH sample with a deletion-order bias and RP's independent
  * samplers almost never collide on common items.
  */
class AccuracyBenchSuite extends AnyFunSuite {

  private val cfg = EvalConfig(kBaseline = 100)
  private lazy val rows = Harness.evaluate(DatasetSpec.youtube, cfg)

  private def at(method: String, cp: Int) =
    rows.find(r => r.method == method && r.checkpoint == cp).get

  test("T3 (Fig 3a): AAPE of s-hat over time on youtube-lite, k=100") {
    println(BenchTables.renderAccuracyOverTime(
      rows, "AAPE", s"T3 (Fig 3a): AAPE of s-hat over time, ${DatasetSpec.youtube.name}, k=100"))
    assert(rows.size == 4 * cfg.checkpoints)
    assert(rows.forall(r => r.pairsUsed > 0))
  }

  test("T4 (Fig 3c): ARMSE of J-hat over time on youtube-lite, k=100") {
    println(BenchTables.renderAccuracyOverTime(
      rows, "ARMSE", s"T4 (Fig 3c): ARMSE of J-hat over time, ${DatasetSpec.youtube.name}, k=100"))
    assert(rows.forall(r => r.armse >= 0 && !r.armse.isNaN))
  }

  test("T3/T4 shape: VOS most accurate at the final checkpoint") {
    val cp = cfg.checkpoints
    for (m <- Seq("MinHash", "OPH", "RP")) {
      assert(at("VOS", cp).aape < at(m, cp).aape,
        s"VOS AAPE ${at("VOS", cp).aape} !< $m ${at(m, cp).aape}")
      assert(at("VOS", cp).armse < at(m, cp).armse,
        s"VOS ARMSE ${at("VOS", cp).armse} !< $m ${at(m, cp).armse}")
    }
  }

  test("T3/T4 shape: VOS error is small in absolute terms") {
    val cp = cfg.checkpoints
    assert(at("VOS", cp).aape < 0.35, s"VOS AAPE ${at("VOS", cp).aape} unexpectedly large")
    assert(at("VOS", cp).armse < 0.15, s"VOS ARMSE ${at("VOS", cp).armse} unexpectedly large")
  }

  test("T3/T4 shape: VOS leads across the last three checkpoints, not just the end") {
    // Early in the stream sets are still small (the paper's tracked users
    // are large from the start of its much bigger crawls), so the shape
    // claim is asserted where the regimes match: the mature stream.
    ((cfg.checkpoints - 2) to cfg.checkpoints).foreach { cp =>
      for (m <- Seq("MinHash", "RP"))
        assert(at("VOS", cp).aape < at(m, cp).aape,
          s"checkpoint $cp: VOS ${at("VOS", cp).aape} !< $m ${at(m, cp).aape}")
    }
  }
}
