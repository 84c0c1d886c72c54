package vosbench

import repro.core.{VOSEstimate, VOSSketch}

/** The correctness checks. Each compares the program's output with a
  * computation made apart from it, or with a property the method must
  * have, and returns `None` when it holds or `Some(reason)` when it fails.
  * [[SelfTest]] shows that each one rejects a corrupted input.
  */
object Checks {

  private def firstMismatch[A](n: Int)(f: Int => Option[A]): Option[A] = {
    var i = 0
    while (i < n) { val r = f(i); if (r.isDefined) return r; i += 1 }
    None
  }

  /** Every user's counter equals the size of its exact final item set. */
  def counters(cardinality: Long => Long, exactSizes: Array[Long]): Option[String] =
    firstMismatch(exactSizes.length) { u =>
      val got = cardinality(u.toLong)
      if (got == exactSizes(u)) None else Some(s"n_$u = $got, exact set size ${exactSizes(u)}")
    }

  /** Deletions cancel: the array after the full stream equals the array of
    * a sketch built from inserts of the final edge set alone.
    */
  def deletionsCancel(sketch: VOSSketch, finalEdges: Iterator[(Long, Long)]): Option[String] = {
    val ref = new VOSSketch(sketch.hashes)
    finalEdges.foreach { case (u, i) => ref.update(u, i, insert = true) }
    if (ref.array == sketch.array) None
    else Some(s"array has ${sketch.array.onesCount} ones, inserts-only rebuild ${ref.array.onesCount}" +
      s" (${sketch.array.hammingDistance(ref.array)} bits differ)")
  }

  /** Two builds agree bit for bit, in the array and in every counter. */
  def bitIdentical(got: VOSSketch, want: VOSSketch, numUsers: Int): Option[String] =
    if (got.array != want.array)
      Some(s"arrays differ in ${got.array.hammingDistance(want.array)} bits")
    else firstMismatch(numUsers) { u =>
      val (g, w) = (got.cardinality(u.toLong), want.cardinality(u.toLong))
      if (g == w) None else Some(s"n_$u = $g, reference $w")
    }

  /** Two paths to α: `alpha(u,v)` as the query saw it equals the Hamming
    * distance of the two rebuilt odd sketches over k, exactly.
    */
  def alphaTwoPaths(sketch: VOSSketch, pairs: Array[(Long, Long)], alphas: Array[Double]): Option[String] = {
    val users  = pairs.flatMap(p => Array(p._1, p._2)).distinct
    val odd    = users.map(u => u -> sketch.rebuildOddSketch(u)).toMap
    val k      = sketch.hashes.k
    firstMismatch(pairs.length) { p =>
      val (u, v) = pairs(p)
      val viaRebuild = odd(u).hammingDistance(odd(v)).toDouble / k
      if (viaRebuild == alphas(p)) None
      else Some(s"pair ($u,$v): alpha ${alphas(p)}, rebuilt Hamming/k $viaRebuild")
    }
  }

  /** Every ŝ lies in [0, min(n_u, n_v)] and every Ĵ in [0, 1]. */
  def ranges(sketch: VOSSketch, pairs: Array[(Long, Long)], est: Array[VOSEstimate]): Option[String] =
    firstMismatch(pairs.length) { p =>
      val (u, v) = pairs(p)
      val hi = math.min(sketch.cardinality(u), sketch.cardinality(v)).toDouble
      val e  = est(p)
      if (e.s >= 0 && e.s <= hi && e.jaccard >= 0 && e.jaccard <= 1) None
      else Some(s"pair ($u,$v): s=${e.s} outside [0,$hi] or J=${e.jaccard} outside [0,1]")
    }

  /** AAPE = mean |ŝ − s| / s over pairs with s > 0. */
  def aape(exact: Array[Double], est: Array[Double]): Double = {
    val used = exact.indices.filter(i => exact(i) > 0)
    used.map(i => math.abs(est(i) - exact(i)) / exact(i)).sum / math.max(1, used.length)
  }

  /** The paper's claim: VOS's AAPE is below every baseline's. */
  def paperClaim(vosAape: Double, baselineAape: Seq[(String, Double)]): Option[String] =
    baselineAape.collectFirst {
      case (name, a) if !(vosAape < a) => s"VOS AAPE $vosAape is not below $name's $a"
    }

  /** No rows lost: the input rows of all micro-batches add up to the
    * events fed.
    */
  def rowsNotLost(batchRows: Seq[Long], fed: Long): Option[String] =
    if (batchRows.sum == fed) None
    else Some(s"${batchRows.sum} input rows over ${batchRows.length} batches, $fed events fed")
}
