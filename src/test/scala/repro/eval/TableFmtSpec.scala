package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class TableFmtSpec extends AnyFunSuite {

  test("render pads columns and includes title, header, separator, rows") {
    val out = TableFmt.render("My Table", Seq("a", "long-header"),
      Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = out.split("\n")
    assert(lines(0) == "== My Table ==")
    assert(lines(1).startsWith("a  "))
    assert(lines(2).matches("[- ]+"))
    assert(lines.length == 5)
    // All data lines padded to the same width.
    assert(lines.drop(1).map(_.length).distinct.size == 1)
  }

  test("render handles empty row list") {
    val out = TableFmt.render("t", Seq("h1", "h2"), Nil)
    assert(out.contains("h1") && out.split("\n").length == 3)
  }

  test("fmt: zero") { assert(TableFmt.fmt(0.0) == "0") }

  test("fmt: large values have no decimals") {
    assert(TableFmt.fmt(12345.67) == "12346")
  }

  test("fmt: mid-range values keep 3 decimals") {
    assert(TableFmt.fmt(3.14159) == "3.142")
  }

  test("fmt: small values keep 5 decimals") {
    assert(TableFmt.fmt(0.0123456) == "0.01235")
  }

  test("fmt: negative values formatted by magnitude") {
    assert(TableFmt.fmt(-3.14159) == "-3.142")
    assert(TableFmt.fmt(-2000.4) == "-2000")
  }

  test("runtime renderers handle missing method entries as NaN") {
    val rows = Seq(RuntimeMeasure.RuntimeRow("VOS", 10, 5.0, 100))
    val out = BenchTables.renderRuntimeVsK(rows, "partial")
    assert(out.contains("NaN"))
  }

  test("accuracy renderer keeps dataset order of first appearance") {
    val rows = Seq(
      AccuracyRow("ds-b", "VOS", 1, 10, 0.1, 0.2, 5),
      AccuracyRow("ds-a", "VOS", 1, 10, 0.3, 0.4, 5),
    )
    val out = BenchTables.renderAccuracyAllDatasets(rows, "AAPE", "t")
    val bIdx = out.indexOf("ds-b"); val aIdx = out.indexOf("ds-a")
    assert(bIdx >= 0 && aIdx > bIdx)
  }

  test("accuracy-over-time renderer sorts checkpoints ascending") {
    val rows = Seq(
      AccuracyRow("d", "VOS", 2, 20, 0.2, 0.2, 5),
      AccuracyRow("d", "VOS", 1, 10, 0.1, 0.1, 5),
    )
    val out = BenchTables.renderAccuracyOverTime(rows, "AAPE", "t").split("\n")
    assert(out(3).trim.startsWith("1") && out(4).trim.startsWith("2"))
  }

  test("the four renderers print fixed rows unchanged (golden output)") {
    def lines(ls: String*): String = ls.mkString("\n")
    val runtime = Seq(
      RuntimeMeasure.RuntimeRow("MinHash", 100, 349.407, 10),
      RuntimeMeasure.RuntimeRow("VOS", 100, 39.649, 10),
      RuntimeMeasure.RuntimeRow("RP", 1, 101.382, 10),
      RuntimeMeasure.RuntimeRow("VOS", 1, 0.0421, 10),
      RuntimeMeasure.RuntimeRow("OPH", 1, 145.096, 10),
      RuntimeMeasure.RuntimeRow("MinHash", 1, 107.868, 10),
      RuntimeMeasure.RuntimeRow("RP", 100000, 812685.4, 10),
    )
    assert(BenchTables.renderRuntimeVsK(runtime, "T1") == lines(
      "== T1 ==",
      "k       VOS ns/edge  MinHash ns/edge  OPH ns/edge  RP ns/edge",
      "------  -----------  ---------------  -----------  ----------",
      "1       0.04210      107.868          145.096      101.382   ",
      "100     39.649       349.407          NaN          NaN       ",
      "100000  NaN          NaN              NaN          812685    "))

    val datasets = Seq(
      "orkut-lite"  -> RuntimeMeasure.RuntimeRow("VOS", 100000, 44.084, 10),
      "flickr-lite" -> RuntimeMeasure.RuntimeRow("OPH", 100000, 148.502, 10),
      "orkut-lite"  -> RuntimeMeasure.RuntimeRow("RP", 100000, 595234.0, 10),
      "flickr-lite" -> RuntimeMeasure.RuntimeRow("VOS", 100000, 50.468, 10),
      "orkut-lite"  -> RuntimeMeasure.RuntimeRow("MinHash", 100000, 500058.0, 10),
    )
    assert(BenchTables.renderRuntimeAllDatasets(datasets, "T2") == lines(
      "== T2 ==",
      "dataset      VOS ns/edge  MinHash ns/edge  OPH ns/edge  RP ns/edge",
      "-----------  -----------  ---------------  -----------  ----------",
      "orkut-lite   44.084       500058           NaN          595234    ",
      "flickr-lite  50.468       NaN              148.502      NaN       "))

    val overTime = Seq(
      AccuracyRow("youtube-lite", "VOS", 3, 300, 0.0123, 0.5, 7),
      AccuracyRow("youtube-lite", "RP", 3, 300, 0.99, 1234.5, 7),
      AccuracyRow("youtube-lite", "VOS", 1, 100, 0.2, 0.0, 7),
      AccuracyRow("youtube-lite", "MinHash", 1, 100, 0.31, 0.041, 7),
      AccuracyRow("youtube-lite", "VOS", 2, 200, 0.15, 0.02, 7),
    )
    assert(BenchTables.renderAccuracyOverTime(overTime, "AAPE", "T3") == lines(
      "== T3 ==",
      "checkpoint  t    VOS AAPE  RP AAPE  MinHash AAPE",
      "----------  ---  --------  -------  ------------",
      "1           100  0.20000   NaN      0.31000     ",
      "2           200  0.15000   NaN      NaN         ",
      "3           300  0.01230   0.99000  NaN         "))
    assert(BenchTables.renderAccuracyOverTime(overTime, "ARMSE", "T4") == lines(
      "== T4 ==",
      "checkpoint  t    VOS ARMSE  RP ARMSE  MinHash ARMSE",
      "----------  ---  ---------  --------  -------------",
      "1           100  0          NaN       0.04100      ",
      "2           200  0.02000    NaN       NaN          ",
      "3           300  0.50000    1235      NaN          "))

    val endOfStream = Seq(
      AccuracyRow("orkut-lite", "OPH", 10, 1000, 0.4, 0.05, 7),
      AccuracyRow("flickr-lite", "VOS", 10, 900, 0.1, 0.01, 7),
      AccuracyRow("orkut-lite", "VOS", 10, 1000, 0.12, 0.011, 7),
      AccuracyRow("flickr-lite", "RP", 10, 900, 1.0, 2.5, 7),
    )
    assert(BenchTables.renderAccuracyAllDatasets(endOfStream, "AAPE", "T5") == lines(
      "== T5 ==",
      "dataset      OPH AAPE  VOS AAPE  RP AAPE",
      "-----------  --------  --------  -------",
      "orkut-lite   0.40000   0.12000   NaN    ",
      "flickr-lite  NaN       0.10000   1.000  "))
    assert(BenchTables.renderAccuracyAllDatasets(endOfStream, "ARMSE", "T6") == lines(
      "== T6 ==",
      "dataset      OPH ARMSE  VOS ARMSE  RP ARMSE",
      "-----------  ---------  ---------  --------",
      "orkut-lite   0.05000    0.01100    NaN     ",
      "flickr-lite  NaN        0.01000    2.500   "))
  }
}
