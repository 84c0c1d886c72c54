package vosbench

import repro.core.{VOSHashes, VOSSketch}
import repro.stream.{DatasetSpec, DynamicStreamGen, GraphGen}

/** Shows that every correctness check can fail: each runs once on a right
  * input, which it must accept, and once on a copy corrupted in one place,
  * which it must reject.
  */
object SelfTest {

  def run(tmp: java.nio.file.Path): Boolean = {
    val spec   = DatasetSpec.scaled(DatasetSpec.youtube, 0.05)
    val events = DynamicStreamGen.generate(GraphGen.baseEdges(spec), seed = 5L).toArray
    val s      = new Stream(spec, events, VOSHashes(k = 256, m = 1 << 16, seed = 7L))
    val exact  = new Exact(s, s.n)
    val sketch = Layers.build(s)
    val pairs  = Exact.allPairs(Inputs.largestUsers(s, 20))
    val est    = Layers.estimateAll(sketch, pairs)
    var ok     = true

    def expect(check: String, corruption: String, right: Option[String], corrupted: Option[String]): Unit = {
      val good = right.isEmpty && corrupted.isDefined
      ok &&= good
      println(f"${if (good) "ok  " else "FAIL"} $check%-18s accepts the right input: ${right.isEmpty}%-5s " +
        s"rejects $corruption: ${corrupted.getOrElse("no")}")
    }

    // One bit flipped in the sketch array.
    val flipped = sketch.copyOf()
    flipped.array.flip(12345)
    expect("deletions_cancel", "one flipped bit",
      Checks.deletionsCancel(sketch, exact.edges), Checks.deletionsCancel(flipped, exact.edges))
    expect("bit_identical", "one flipped bit",
      Checks.bitIdentical(sketch.copyOf(), sketch, spec.numUsers), Checks.bitIdentical(flipped, sketch, spec.numUsers))

    // One counter off by one: an extra insert whose bit is flipped back.
    val offByOne = sketch.copyOf()
    val (u, item) = (pairs.head._1, spec.numItems + 1L)
    offByOne.update(u, item, insert = true)
    offByOne.array.flip(s.hashes.position(u, item))
    expect("counters", "one counter off by one",
      Checks.counters(sketch.cardinality, exact.sizes), Checks.counters(offByOne.cardinality, exact.sizes))
    expect("bit_identical", "one counter off by one",
      Checks.bitIdentical(sketch.copyOf(), sketch, spec.numUsers), Checks.bitIdentical(offByOne, sketch, spec.numUsers))

    // One pair's α perturbed.
    val alphas    = est.map(_.alpha)
    val perturbed = alphas.updated(7, alphas(7) + 1.0 / s.hashes.k)
    expect("alpha_two_paths", "one perturbed alpha",
      Checks.alphaTwoPaths(sketch, pairs, alphas), Checks.alphaTwoPaths(sketch, pairs, perturbed))

    // One estimate out of range; the paper's claim against a perfect rival.
    val outOfRange = est.updated(3, est(3).copy(s = math.min(sketch.cardinality(pairs(3)._1),
      sketch.cardinality(pairs(3)._2)) + 1.0))
    expect("estimate_ranges", "one s above min(n_u, n_v)",
      Checks.ranges(sketch, pairs, est), Checks.ranges(sketch, pairs, outOfRange))
    val truth = exact.intersections(pairs)
    val vos   = Checks.aape(truth, est.map(_.s))
    expect("paper_claim", "a baseline that is exact",
      Checks.paperClaim(vos, Seq("worse" -> (vos + 1))), Checks.paperClaim(vos, Seq("exact" -> Checks.aape(truth, truth))))

    // One micro-batch's rows dropped, in a real streaming run.
    val spark = SparkBuild.session(tmp)
    try {
      val size  = (s.n + 3) / 4
      val whole = SparkBuild.replay(spark, s, tmp, "selftest_whole", s.events, 4, new Trace(false))
      val lossy = SparkBuild.replay(spark, s, tmp, "selftest_lossy",
        s.events.take(size) ++ s.events.drop(2 * size), 3, new Trace(false))
      expect("rows_not_lost", "one dropped micro-batch",
        Checks.rowsNotLost(whole.arrayRows, s.n), Checks.rowsNotLost(lossy.arrayRows, s.n))
      expect("bit_identical", "one dropped micro-batch",
        Checks.bitIdentical(whole.sketch, sketch, spec.numUsers), Checks.bitIdentical(lossy.sketch, sketch, spec.numUsers))
    } finally spark.stop()
    ok
  }
}
