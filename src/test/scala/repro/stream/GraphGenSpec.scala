package repro.stream

import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  private val spec = DatasetSpec("test", numUsers = 200, numItems = 400,
    baseEdges = 3000, alphaUser = 0.8, alphaItem = 1.2, seed = 55L)

  test("DatasetSpec validates sizes") {
    intercept[IllegalArgumentException](spec.copy(numUsers = 0))
    intercept[IllegalArgumentException](spec.copy(baseEdges = -1))
  }

  test("edges are distinct") {
    val e = GraphGen.baseEdges(spec)
    assert(e.distinct.size == e.size)
  }

  test("ids are in range") {
    val e = GraphGen.baseEdges(spec)
    e.foreach { case (u, i) =>
      assert(u >= 0 && u < spec.numUsers)
      assert(i >= 0 && i < spec.numItems)
    }
  }

  test("edge count is near the target") {
    val e = GraphGen.baseEdges(spec)
    assert(e.size > spec.baseEdges / 2, s"only ${e.size} edges")
    assert(e.size < spec.baseEdges * 2)
  }

  test("deterministic in spec") {
    assert(GraphGen.baseEdges(spec) == GraphGen.baseEdges(spec))
    assert(GraphGen.baseEdges(spec) != GraphGen.baseEdges(spec.copy(seed = 56L)))
  }

  test("user degrees are heavy-tailed: rank-0 user far above median") {
    val e = GraphGen.baseEdges(spec)
    val deg = e.groupBy(_._1).view.mapValues(_.size).toMap
    val degs = (0 until spec.numUsers).map(u => deg.getOrElse(u.toLong, 0))
    val median = degs.sorted.apply(degs.size / 2)
    assert(degs.head > 10 * math.max(1, median),
      s"top degree ${degs.head} vs median $median — not heavy-tailed")
  }

  test("degrees are (weakly) decreasing in user rank on average") {
    val e = GraphGen.baseEdges(spec)
    val deg = e.groupBy(_._1).view.mapValues(_.size).toMap
    val firstHalf = (0 until 100).map(u => deg.getOrElse(u.toLong, 0)).sum
    val secondHalf = (100 until 200).map(u => deg.getOrElse(u.toLong, 0)).sum
    assert(firstHalf > secondHalf)
  }

  test("popular items are shared by many users") {
    val e = GraphGen.baseEdges(spec)
    val itemDeg = e.groupBy(_._2).view.mapValues(_.size)
    assert(itemDeg.values.max > 20, "no popular items — pairs would not overlap")
  }

  test("top users share items (tracked pairs exist)") {
    val e = GraphGen.baseEdges(spec)
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
      assert(base.map(_._1).distinct.sorted == (0L until s.numUsers.toLong), s.name)
      val stream = DynamicStreamGen.generate(base, d = 0.9, r = 0.9, seed = s.seed)
      assert(stream.map(_.user).distinct.size == s.numUsers, s.name)
    }
  }

  test("the four presets generate non-trivially") {
    DatasetSpec.all.foreach { full =>
      val small = DatasetSpec.scaled(full, 0.05)
      val e = GraphGen.baseEdges(small)
      assert(e.nonEmpty, s"${full.name} generated no edges")
      assert(e.map(_._1).distinct.size > 5, s"${full.name}: too few users")
    }
  }
}
