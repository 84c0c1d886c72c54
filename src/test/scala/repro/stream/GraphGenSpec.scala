package repro.stream

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.TestStreams.pairs

class GraphGenSpec extends AnyFunSuite {

  private val spec = DatasetSpec("test", numUsers = 200, numItems = 400,
    baseEdges = 3000, alphaUser = 0.8, alphaItem = 1.2, seed = 55L)

  test("DatasetSpec validates sizes") {
    intercept[IllegalArgumentException](spec.copy(numUsers = 0))
    intercept[IllegalArgumentException](spec.copy(baseEdges = -1))
  }

  test("edges are distinct") {
    val e = pairs(GraphGen.baseEdges(spec))
    assert(e.distinct.size == e.size)
  }

  test("ids are in range") {
    val e = pairs(GraphGen.baseEdges(spec))
    e.foreach { case (u, i) =>
      assert(u >= 0 && u < spec.numUsers)
      assert(i >= 0 && i < spec.numItems)
    }
  }

  test("edge count is near the target") {
    val e = pairs(GraphGen.baseEdges(spec))
    assert(e.size > spec.baseEdges / 2, s"only ${e.size} edges")
    assert(e.size < spec.baseEdges * 2)
  }

  test("deterministic in spec") {
    assert(pairs(GraphGen.baseEdges(spec)) == pairs(GraphGen.baseEdges(spec)))
    assert(pairs(GraphGen.baseEdges(spec)) != pairs(GraphGen.baseEdges(spec.copy(seed = 56L))))
  }

  test("user degrees are heavy-tailed: rank-0 user far above median") {
    val e = pairs(GraphGen.baseEdges(spec))
    val deg = e.groupBy(_._1).view.mapValues(_.size).toMap
    val degs = (0 until spec.numUsers).map(u => deg.getOrElse(u.toLong, 0))
    val median = degs.sorted.apply(degs.size / 2)
    assert(degs.head > 10 * math.max(1, median),
      s"top degree ${degs.head} vs median $median — not heavy-tailed")
  }

  test("degrees are (weakly) decreasing in user rank on average") {
    val e = pairs(GraphGen.baseEdges(spec))
    val deg = e.groupBy(_._1).view.mapValues(_.size).toMap
    val firstHalf = (0 until 100).map(u => deg.getOrElse(u.toLong, 0)).sum
    val secondHalf = (100 until 200).map(u => deg.getOrElse(u.toLong, 0)).sum
    assert(firstHalf > secondHalf)
  }

  test("popular items are shared by many users") {
    val e = pairs(GraphGen.baseEdges(spec))
    val itemDeg = e.groupBy(_._2).view.mapValues(_.size)
    assert(itemDeg.values.max > 20, "no popular items — pairs would not overlap")
  }

  test("top users share items (tracked pairs exist)") {
    val e = pairs(GraphGen.baseEdges(spec))
    val sets = e.groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    val top = sets.toSeq.sortBy(-_._2.size).take(10).map(_._1)
    val sharing = top.combinations(2).count {
      case Seq(u, v) => sets(u).exists(sets(v).contains)
      case _         => false
    }
    assert(sharing > 20, s"only $sharing of 45 top pairs share an item")
  }

  test("ZipfSampler produces skewed ranks") {
    val rng = new java.util.SplittableRandom(1)
    val z = new GraphGen.ZipfSampler(100, 1.5, rng)
    val draws = (0 until 10000).map(_ => z.next())
    assert(draws.forall(r => r >= 0 && r < 100))
    val rank0 = draws.count(_ == 0)
    val rank50 = draws.count(_ == 50)
    assert(rank0 > 20 * math.max(1, rank50), s"rank0=$rank0 rank50=$rank50")
  }

  test("scaled spec shrinks sizes with floors") {
    val s = DatasetSpec.scaled(DatasetSpec.youtube, 0.01)
    assert(s.numUsers >= 10 && s.numItems >= 20 && s.baseEdges >= 50)
    assert(s.numUsers < DatasetSpec.youtube.numUsers)
    intercept[IllegalArgumentException](DatasetSpec.scaled(DatasetSpec.youtube, 0.0))
  }

  test("every user has a base edge, so a stream's distinct users are numUsers") {
    // A tiny spec where almost every user's Zipf share of the edges rounds
    // to 0 and at most one item fits per user.
    val tiny = DatasetSpec("tiny", numUsers = 30, numItems = 2, baseEdges = 1,
      alphaUser = 3.0, alphaItem = 3.0, seed = 7L)
    (tiny +: spec +: DatasetSpec.all.map(DatasetSpec.scaled(_, 0.1))).foreach { s =>
      val base = GraphGen.baseEdges(s)
      assert(pairs(base).map(_._1).distinct.sorted == (0L until s.numUsers.toLong), s.name)
      val stream = DynamicStreamGen.generate(base, d = 0.9, r = 0.9, seed = s.seed)
      assert(stream.map(_.user).distinct.size == s.numUsers, s.name)
    }
  }

  test("the four presets generate non-trivially") {
    DatasetSpec.all.foreach { full =>
      val small = DatasetSpec.scaled(full, 0.05)
      val e = pairs(GraphGen.baseEdges(small))
      assert(e.nonEmpty, s"${full.name} generated no edges")
      assert(e.map(_._1).distinct.size > 5, s"${full.name}: too few users")
    }
  }

  /** The graph generator's first algorithm: a binary search per Zipf
    * draw, a boxed `mutable.HashSet[Int]` per user, emitted in the set's
    * iteration order as tuples. The column version must reproduce it.
    * Also returns how many users ran out of attempts.
    */
  private def baseEdgesByHashSet(spec: DatasetSpec): (IndexedSeq[(Long, Long)], Int) = {
    val rng = new java.util.SplittableRandom(spec.seed)
    val rawW  = Array.tabulate(spec.numUsers)(r => 1.0 / math.pow(r + 1.0, spec.alphaUser))
    val wSum  = rawW.sum
    val maxDeg = math.max(1, spec.numItems / 2)
    val degrees = rawW.map { w =>
      math.min(maxDeg, math.max(1, math.round(w / wSum * spec.baseEdges).toInt))
    }
    val itemPerm = {
      val a = Array.tabulate(spec.numItems)(identity)
      var i = a.length - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
      a
    }
    val cdf = new GraphGen.ZipfSampler(spec.numItems, spec.alphaItem, rng).cdf
    def zipf(): Int = {
      val idx = java.util.Arrays.binarySearch(cdf, rng.nextDouble())
      math.min(if (idx >= 0) idx else -idx - 1, spec.numItems - 1)
    }
    val edges = IndexedSeq.newBuilder[(Long, Long)]
    var stopped = 0
    var u = 0
    while (u < spec.numUsers) {
      val want = degrees(u)
      val chosen = new mutable.HashSet[Int]
      var attempts = 0
      val maxAttempts = want * 30 + 100
      while (chosen.size < want && attempts < maxAttempts) {
        chosen.add(itemPerm(zipf()))
        attempts += 1
      }
      if (chosen.size < want) stopped += 1
      chosen.foreach(i => edges += ((u.toLong, i.toLong)))
      u += 1
    }
    (edges.result(), stopped)
  }

  test("same edges in the same order as the hash-set algorithm on random specs") {
    val rng = new java.util.Random(13)
    var stopping = 0
    (0 until 240).foreach { t =>
      val s = DatasetSpec(s"random-$t", numUsers = 1 + rng.nextInt(120), numItems = 1 + rng.nextInt(600),
        baseEdges = 1 + rng.nextInt(6000), alphaUser = rng.nextDouble() * 1.5,
        // Every third spec has an item exponent ≥ 2: its users run out of
        // attempts on repeated popular items.
        alphaItem = if (t % 3 == 0) 2 + rng.nextDouble() * 2 else rng.nextDouble() * 2, seed = rng.nextLong())
      val (expected, stopped) = baseEdgesByHashSet(s)
      assert(pairs(GraphGen.baseEdges(s)) == expected, s.toString)
      if (stopped > 0) stopping += 1
    }
    assert(stopping >= 60, s"users ran out of attempts in only $stopping specs")
    Seq(spec, DatasetSpec.scaled(DatasetSpec.youtube, 0.1), DatasetSpec.scaled(DatasetSpec.orkut, 0.1)).foreach { s =>
      assert(pairs(GraphGen.baseEdges(s)) == baseEdgesByHashSet(s)._1, s.name)
    }
  }

  test("the guide-table Zipf rank equals a binary search over the cdf") {
    // Exponent 40: every rank past the third adds nothing to the running
    // sum, so most cdf entries are equal.
    for ((n, alpha) <- Seq((1, 1.0), (2, 0.5), (7, 1.1), (100, 1.5), (1000, 0.0), (5000, 1.1), (300, 40.0))) {
      val z = new GraphGen.ZipfSampler(n, alpha, new java.util.SplittableRandom(3))
      def binary(u: Double): Int = {
        val idx = java.util.Arrays.binarySearch(z.cdf, u)
        math.min(if (idx >= 0) idx else -idx - 1, n - 1)
      }
      val rng = new java.util.SplittableRandom(n.toLong)
      val draws = Seq(0.0, Math.nextUp(z.cdf(n - 1)), 1.0, 2.0) ++
        z.cdf.flatMap(c => Seq(c, Math.nextDown(c), Math.nextUp(c))) ++
        (0 until n).map(b => b.toDouble / n) ++
        Seq.fill(20000)(rng.nextDouble())
      draws.foreach(u => assert(z.rank(u) == binary(u), s"n=$n alpha=$alpha u=$u"))
    }
  }
}
