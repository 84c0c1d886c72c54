package repro

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{ExactSim, MinHashDyn, OPHDyn, RandomPairing, Registers}
import repro.core.{VOSHashes, VOSSketch}
import repro.stream.EdgeEvent

/** Cross-method invariants on random feasible streams: properties every
  * sketch must maintain at *every* prefix of *any* feasible stream, not
  * just the curated scenarios of the per-method suites.
  */
class InvariantsSpec extends AnyFunSuite {

  private def check(prop: Prop, min: Int = 25): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(min), prop)
    assert(res.passed, res.status.toString)
  }

  private val streamGen: Gen[IndexedSeq[EdgeEvent]] = for {
    seed    <- Gen.choose(0L, 100000L)
    len     <- Gen.choose(50, 500)
    delProb <- Gen.choose(0.0, 0.6)
  } yield TestStreams.random(numUsers = 8, numItems = 20, length = len,
    delProb = delProb, seed = seed)

  test("every method's counters equal exact cardinalities on any stream") {
    check(Prop.forAll(streamGen) { events =>
      val exact = new ExactSim
      val methods = Seq(
        new VOSSketch(VOSHashes(64, 4096, 1)),
        new MinHashDyn(16), new OPHDyn(16), new RandomPairing(16))
      events.foreach { e => exact.update(e); methods.foreach(_.update(e)) }
      (0L until 8L).forall { u =>
        methods.forall(_.cardinality(u) == exact.cardinality(u))
      }
    })
  }

  test("MinHash registers only ever hold currently-present items") {
    check(Prop.forAll(streamGen) { events =>
      val mh = new MinHashDyn(16)
      events.lazyZip(TestStreams.prefixSets(events)).forall { (e, sets) =>
        mh.update(e)
        (0L until 8L).forall { u =>
          val present = sets(u)
          mh.registers(u).forall(r => r == Registers.Empty || present.contains(r))
        }
      }
    }, min = 15)
  }

  test("OPH registers only ever hold currently-present items, in their own bin") {
    check(Prop.forAll(streamGen) { events =>
      val oph = new OPHDyn(16)
      events.lazyZip(TestStreams.prefixSets(events)).forall { (e, sets) =>
        oph.update(e)
        (0L until 8L).forall { u =>
          val present = sets(u)
          oph.registers(u).zipWithIndex.forall { case (r, j) =>
            r == Registers.Empty || (present.contains(r) && oph.bin(r) == j)
          }
        }
      }
    }, min = 15)
  }

  test("RP samples only ever hold currently-present items") {
    check(Prop.forAll(streamGen) { events =>
      val rp = new RandomPairing(8)
      events.lazyZip(TestStreams.prefixSets(events)).forall { (e, sets) =>
        rp.update(e)
        (0L until 8L).forall { u =>
          val present = sets(u)
          rp.samples(u).forall(s => s == Registers.Empty || present.contains(s))
        }
      }
    }, min = 15)
  }

  test("VOS ones-count never exceeds total events processed") {
    check(Prop.forAll(streamGen) { events =>
      val vos = new VOSSketch(VOSHashes(64, 4096, 2))
      events.zipWithIndex.forall { case (e, i) =>
        vos.update(e)
        vos.array.onesCount <= i + 1
      }
    })
  }

  test("VOS array equals XOR-scatter of exact final sets (ground-truth model)") {
    // The virtual odd sketch is fully determined by the *final* sets:
    // rebuild A directly from them and compare.
    check(Prop.forAll(streamGen) { events =>
      val h = VOSHashes(32, 2048, 3)
      val vos = VOSSketch.build(h, events)
      val rebuilt = new repro.core.BitArray(h.m)
      for ((u, items) <- TestStreams.finalSets(events); i <- items) rebuilt.flip(h.position(u, i))
      rebuilt == vos.array
    })
  }

  test("estimates are finite and in range for all methods on any stream") {
    check(Prop.forAll(streamGen) { events =>
      val methods = Seq(
        new VOSSketch(VOSHashes(64, 4096, 4)),
        new MinHashDyn(16), new OPHDyn(16), new RandomPairing(16))
      events.foreach(e => methods.foreach(_.update(e)))
      (for (u <- 0L until 8L; v <- 0L until 8L if u != v; m <- methods) yield {
        val (s, j) = m.estimatePair(u, v)
        !s.isNaN && !s.isInfinite && s >= 0 &&
          !j.isNaN && j >= 0 && j <= 1
      }).forall(identity)
    }, min = 15)
  }

  test("static streams (no deletions): MinHash and OPH jaccard close to exact") {
    val gen = for {
      seed <- Gen.choose(0L, 10000L)
    } yield TestStreams.random(4, 60, 150, delProb = 0.0, seed = seed)
    check(Prop.forAll(gen) { events =>
      val exact = new ExactSim
      val mh = new MinHashDyn(256)
      val oph = new OPHDyn(256)
      events.foreach { e => exact.update(e); mh.update(e); oph.update(e) }
      (0L until 4L).combinations(2).forall { case Seq(u, v) =>
        val j = exact.estimatePair(u, v)._2
        math.abs(mh.estimatePair(u, v)._2 - j) < 0.2 &&
          math.abs(oph.estimatePair(u, v)._2 - j) < 0.2
      }
    }, min = 15)
  }
}
