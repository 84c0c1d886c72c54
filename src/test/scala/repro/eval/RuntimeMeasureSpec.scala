package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.TestStreams
import repro.baselines.{ExactSim, MinHashDyn, OPHDyn}
import repro.core.{VOSHashes, VOSSketch}

class RuntimeMeasureSpec extends AnyFunSuite {

  private val events = TestStreams.random(50, 200, 20000, seed = 77)

  test("measure returns positive ns/edge and reports edges processed") {
    val row = RuntimeMeasure.measure(16, () => new OPHDyn(16), events)
    assert(row.nsPerEdge > 0)
    assert(row.edges > 0)
    assert(row.method == "OPH" && row.k == 16)
  }

  test("VOS measurement works at large k without large allocation") {
    val row = RuntimeMeasure.measure(100000,
      () => new VOSSketch(VOSHashes(k = 64 * 100000, m = 1 << 20, seed = 1)), events)
    assert(row.nsPerEdge > 0 && row.nsPerEdge < 1e6)
  }

  test("MinHash ns/edge grows with k (O(k) per update)") {
    val slow = RuntimeMeasure.measure(2048, () => new MinHashDyn(2048), events)
    val fast = RuntimeMeasure.measure(8, () => new MinHashDyn(8), events)
    assert(slow.nsPerEdge > 5 * fast.nsPerEdge,
      s"k=2048 ${slow.nsPerEdge} ns/edge vs k=8 ${fast.nsPerEdge} ns/edge")
  }

  test("a short stream is timed again on fresh sketches, never replayed into one") {
    // ExactSim rejects any infeasible event, such as a replayed insert.
    val short = TestStreams.random(20, 50, 2000, seed = 78)
    val row   = RuntimeMeasure.measure(1, () => new ExactSim, short)
    assert(row.edges > 3 * short.length)
  }

  test("Samples report the median ns per unit over their samples") {
    val s = new RuntimeMeasure.Samples
    Seq((10L, 100L), (10L, 5000L), (20L, 60L), (5L, 100L)).foreach { case (u, ns) => s.add(u, ns) }
    assert(s.count == 4 && s.units == 45)
    assert(s.medianNsPerUnit == 15.0) // of 10, 500, 3 and 20
  }
}
