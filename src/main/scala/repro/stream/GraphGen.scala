package repro.stream

/** Specification of one synthetic bipartite dataset (a laptop-scale analog
  * of the paper's YouTube / Flickr / Orkut / LiveJournal crawls — see
  * DESIGN.md § 5 for the substitution rationale).
  *
  * @param name       dataset label used in tables
  * @param numUsers   |U|
  * @param numItems   |I|
  * @param baseEdges  target number of distinct (user, item) base edges
  * @param alphaUser  Zipf exponent of user degrees (larger = more skew)
  * @param alphaItem  Zipf exponent of item popularity
  * @param seed       generation seed
  */
final case class DatasetSpec(
    name: String,
    numUsers: Int,
    numItems: Int,
    baseEdges: Int,
    alphaUser: Double,
    alphaItem: Double,
    seed: Long,
) {
  require(numUsers > 0 && numItems > 0 && baseEdges > 0, s"bad sizes in $this")
}

object DatasetSpec {
  /** The four dataset analogs, ordered as the paper lists them.
    *
    * User-degree exponents are sub-linear (α < 1) so the *top few hundred*
    * users all carry large item sets — the paper tracks the 5000
    * largest-cardinality users of million-node crawls, whose sets (and
    * pairwise overlaps) are large; a steeper Zipf at this scale would
    * leave most tracked users with near-empty sets and put every method
    * in a regime the paper never evaluates.
    */
  val youtube: DatasetSpec =
    DatasetSpec("youtube-lite", 4000, 8000, 400000, 0.70, 1.10, 101L)
  val flickr: DatasetSpec =
    DatasetSpec("flickr-lite", 3000, 6000, 350000, 0.75, 1.05, 102L)
  val orkut: DatasetSpec =
    DatasetSpec("orkut-lite", 2000, 4000, 400000, 0.60, 1.00, 103L)
  val livejournal: DatasetSpec =
    DatasetSpec("livejournal-lite", 5000, 10000, 400000, 0.80, 1.15, 104L)

  val all: Seq[DatasetSpec] = Seq(youtube, flickr, orkut, livejournal)

  /** Uniformly shrink a spec (for unit tests / smoke benches). */
  def scaled(spec: DatasetSpec, factor: Double): DatasetSpec = {
    require(factor > 0 && factor <= 1, s"factor out of (0,1]: $factor")
    spec.copy(
      numUsers  = math.max(10, (spec.numUsers * factor).toInt),
      numItems  = math.max(20, (spec.numItems * factor).toInt),
      baseEdges = math.max(50, (spec.baseEdges * factor).toInt),
    )
  }
}

/** A base edge list in two primitive columns: edge `e` is
  * `(users(e), items(e))`.
  */
final class Edges(val users: Array[Int], val items: Array[Int]) {
  require(users.length == items.length, s"column lengths differ: ${users.length} vs ${items.length}")
  def length: Int = users.length
}

/** Synthetic bipartite power-law graph generator.
  *
  * User degrees follow a rank-Zipf law (user of rank r gets weight
  * `1/r^alphaUser`, scaled so total degree ≈ `baseEdges`); each user then
  * picks that many *distinct* items from a Zipf popularity distribution
  * over items. The result is deterministic in the spec (including seed).
  *
  * Heavy-tailed degrees give a small set of very-large users (the paper
  * tracks the top-cardinality users) and popular items shared by many
  * users (so tracked pairs have non-trivial intersections).
  */
object GraphGen {

  /** Zipf sampler over ranks 1..n with exponent alpha, via inverse CDF.
    * A guide table holds, for each `b < n`, the first index whose cdf
    * is ≥ `b/n`; a draw `u` scans up from the entry of `b = ⌊u·n⌋`, which
    * finds the index that a binary search over the whole cdf finds.
    */
  final class ZipfSampler(n: Int, alpha: Double, rng: java.util.SplittableRandom) {
    require(n > 0, s"n must be positive, got $n")
    private[stream] val cdf = {
      var acc = 0.0
      val c = new Array[Double](n)
      var i = 0
      while (i < n) { acc += 1.0 / math.pow(i + 1.0, alpha); c(i) = acc; i += 1 }
      val tot = acc
      i = 0
      while (i < n) { c(i) /= tot; i += 1 }
      c
    }

    private val guide = {
      val g = new Array[Int](n)
      var i = 0
      var b = 0
      while (b < n) {
        val lo = b.toDouble / n
        while (i < n - 1 && cdf(i) < lo) i += 1
        g(b) = i
        b += 1
      }
      g
    }

    /** Draw a 0-based rank. */
    def next(): Int = rank(rng.nextDouble())

    /** The rank of a uniform draw `u`: the first index whose cdf is ≥ `u`,
      * at most `n − 1`. A draw equal to a cdf entry, or one that rounding
      * put below its guide entry's predecessor, takes the binary search
      * whose result this reproduces.
      */
    private[stream] def rank(u: Double): Int = {
      var pos = guide(math.min((u * n).toInt, n - 1))
      if (pos > 0 && cdf(pos - 1) >= u) binaryRank(u)
      else {
        while (pos < n - 1 && cdf(pos) < u) pos += 1
        if (cdf(pos) == u) binaryRank(u) else pos
      }
    }

    private def binaryRank(u: Double): Int = {
      val idx = java.util.Arrays.binarySearch(cdf, u)
      math.min(if (idx >= 0) idx else -idx - 1, n - 1)
    }
  }

  /** Generate the distinct base edge set of `spec`. Users are ids
    * `0 until numUsers` with rank = id (user 0 is the largest), each with
    * its edges contiguous; items are ids `0 until numItems` with a random
    * popularity permutation so item id does not encode popularity.
    *
    * A user's items come out in the order that the generator's first
    * version, a `mutable.HashSet[Int]` per user, iterated them (DESIGN.md
    * § 5), so every dataset and table keeps its values.
    */
  def baseEdges(spec: DatasetSpec): Edges = {
    val rng = new java.util.SplittableRandom(spec.seed)

    // Per-user target degrees: rank-Zipf scaled to baseEdges total.
    val degrees = new Array[Int](spec.numUsers)
    val rawW    = new Array[Double](spec.numUsers)
    var wSum    = 0.0
    var u = 0
    while (u < spec.numUsers) { rawW(u) = 1.0 / math.pow(u + 1.0, spec.alphaUser); wSum += rawW(u); u += 1 }
    val maxDeg = math.max(1, spec.numItems / 2)
    var total  = 0L
    u = 0
    while (u < spec.numUsers) {
      degrees(u) = math.min(maxDeg, math.max(1, math.round(rawW(u) / wSum * spec.baseEdges).toInt))
      total += degrees(u)
      u += 1
    }

    // Item popularity: Zipf over a shuffled id permutation.
    val itemPerm = {
      val a = new Array[Int](spec.numItems)
      var i = 0
      while (i < a.length) { a(i) = i; i += 1 }
      i = a.length - 1
      while (i > 0) { val j = rng.nextInt(i + 1); val t = a(i); a(i) = a(j); a(j) = t; i -= 1 }
      a
    }
    val itemZipf = new ZipfSampler(spec.numItems, spec.alphaItem, rng)

    require(total < Int.MaxValue, s"too many edges: $total")
    val users  = new Array[Int](total.toInt)
    val items  = new Array[Int](total.toInt)
    val seen   = new Array[Long]((spec.numItems + 63) >>> 6)
    val picked = new Array[Int](maxDeg)
    val link   = new Array[Int](maxDeg)
    var head   = new Array[Int](16)
    var n = 0
    u = 0
    while (u < spec.numUsers) {
      val want = degrees(u)
      var size = 0
      var attempts = 0
      // The hash set's table size and growth threshold: it doubles when an
      // add, new item or not, would bring the size to the threshold.
      var cap = 16
      var threshold = 12
      // Distinct items per user; bail after enough misses so very skewed
      // popularity cannot loop forever.
      val maxAttempts = want * 30 + 100
      while (size < want && attempts < maxAttempts) {
        if (size + 1 >= threshold) { cap *= 2; threshold = (cap * 0.75).toInt }
        val i = itemPerm(itemZipf.next())
        if ((seen(i >>> 6) & (1L << i)) == 0) {
          seen(i >>> 6) |= 1L << i
          picked(size) = i
          size += 1
        }
        attempts += 1
      }
      // The set's iteration order: by bucket `h & (cap − 1)`, then by `h`,
      // with `h = i ^ (i >>> 16)`, which gives back `i` as `h ^ (h >>> 16)`.
      // `picked` now holds `h`; each bucket's chain is kept ordered by it.
      if (head.length < cap) head = new Array[Int](cap)
      java.util.Arrays.fill(head, 0, cap, -1)
      var j = 0
      while (j < size) {
        val i = picked(j)
        seen(i >>> 6) &= ~(1L << i)
        val h = i ^ (i >>> 16)
        picked(j) = h
        val b = h & (cap - 1)
        var p = head(b)
        if (p < 0 || picked(p) > h) { link(j) = p; head(b) = j }
        else {
          while (link(p) >= 0 && picked(link(p)) < h) p = link(p)
          link(j) = link(p)
          link(p) = j
        }
        j += 1
      }
      var b = 0
      while (b < cap) {
        var p = head(b)
        while (p >= 0) {
          users(n) = u
          items(n) = picked(p) ^ (picked(p) >>> 16)
          n += 1
          p = link(p)
        }
        b += 1
      }
      u += 1
    }
    new Edges(java.util.Arrays.copyOf(users, n), java.util.Arrays.copyOf(items, n))
  }
}
