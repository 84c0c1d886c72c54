package repro.eval

import scala.collection.mutable
import repro.baselines.{ExactSim, MinHashDyn, OPHDyn, RandomPairing}
import repro.core.{SimilaritySketch, VOSSketch}
import repro.stream.{DatasetSpec, DynamicStreamGen, EdgeEvent, GraphGen}

/** Evaluation configuration mirroring the paper's § V setup.
  *
  * @param kBaseline   registers per user for MinHash/OPH/RP (paper: k=100)
  * @param lambda      VOS sketch-size multiplier (paper: λ=2 → k_vos = 64·k)
  * @param topUsers    number of largest-cardinality users tracked
  *                    (paper: 5000 out of millions; 150 here, where every
  *                    tracked user still holds hundreds of items)
  * @param maxPairs    cap on tracked pairs (seeded sample) to bound
  *                    checkpoint cost
  * @param checkpoints number of evenly spaced evaluation times
  * @param d           deletion probability of the stream generator
  * @param r           re-subscription probability
  * @param seed        seed for stream scheduling, pair sampling, sketches
  */
final case class EvalConfig(
    kBaseline: Int = 100,
    lambda: Int = 2,
    topUsers: Int = 150,
    maxPairs: Int = 1000,
    checkpoints: Int = 10,
    d: Double = 0.5,
    r: Double = 0.5,
    seed: Long = 42L,
)

/** One dataset prepared for evaluation: its dynamic stream and the tracked
  * pair set (paper § V: top-cardinality users, pairs sharing ≥1 item in
  * the final sets).
  */
final case class PreparedDataset(
    spec: DatasetSpec,
    stream: IndexedSeq[EdgeEvent],
    pairs: IndexedSeq[(Long, Long)],
    numUsers: Int,
)

/** One (dataset, method, checkpoint) accuracy row. */
final case class AccuracyRow(
    dataset: String,
    method: String,
    checkpoint: Int,
    time: Long,
    aape: Double,
    armse: Double,
    pairsUsed: Int,
)

/** Sequential evaluation harness: generates streams, replays them through
  * every method, and produces the rows behind the paper's Figures 2–3
  * (tables T1–T6 in DESIGN.md § 6).
  */
object Harness {

  /** Build the dynamic stream and tracked pairs for `spec`. */
  def prepare(spec: DatasetSpec, cfg: EvalConfig): PreparedDataset = {
    val base   = GraphGen.baseEdges(spec)
    val stream = DynamicStreamGen.generate(base, cfg.d, cfg.r, cfg.seed ^ spec.seed)

    // Final sets → top users → candidate pairs with ≥1 common item.
    val finalSets = new ExactSim
    stream.foreach(finalSets.update)
    val top = finalSets.users.toIndexedSeq
      .map(u => (u, finalSets.cardinality(u)))
      .sortBy { case (u, n) => (-n, u) }
      .take(cfg.topUsers)
      .map(_._1)

    val itemSets: Map[Long, Set[Long]] = top.map(u => u -> finalSets.itemsOf(u)).toMap
    val candidates = IndexedSeq.newBuilder[(Long, Long)]
    var i = 0
    while (i < top.length) {
      var j = i + 1
      while (j < top.length) {
        val (u, v) = (top(i), top(j))
        if (itemSets(u).exists(itemSets(v).contains)) candidates += ((u, v))
        j += 1
      }
      i += 1
    }
    val all = candidates.result()
    val pairs =
      if (all.length <= cfg.maxPairs) all
      else {
        val rng = new java.util.SplittableRandom(cfg.seed ^ spec.seed ^ 0x9e37L)
        val idx = Array.tabulate(all.length)(identity)
        var t = idx.length - 1
        while (t > 0) { val s = rng.nextInt(t + 1); val tmp = idx(t); idx(t) = idx(s); idx(s) = tmp; t -= 1 }
        IndexedSeq.tabulate(cfg.maxPairs)(p => all(idx(p)))
      }

    val numUsers = stream.iterator.map(_.user).distinct.size
    PreparedDataset(spec, stream, pairs, numUsers)
  }

  /** Fresh instances of the four methods under test (paper's memory
    * parity: MinHash/OPH/RP get `kBaseline` 32-bit registers per user; VOS
    * gets `m = 32·k·numUsers` shared bits and `k_vos = λ·32·k`).
    */
  def methods(cfg: EvalConfig, numUsers: Int): Seq[SimilaritySketch] = Seq(
    new VOSSketch(VOSSketch.paperConfig(cfg.kBaseline, numUsers, cfg.lambda, cfg.seed)),
    new MinHashDyn(cfg.kBaseline, cfg.seed + 1),
    new OPHDyn(cfg.kBaseline, cfg.seed + 2),
    new RandomPairing(cfg.kBaseline, cfg.seed + 3),
  )

  /** Replay the stream through `sketches` (plus the exact substrate),
    * scoring every method at `cfg.checkpoints` evenly spaced times.
    */
  def runAccuracy(
      prep: PreparedDataset,
      cfg: EvalConfig,
      sketches: Seq[SimilaritySketch],
  ): Seq[AccuracyRow] = {
    val exact = new ExactSim
    val n     = prep.stream.length
    val checkpointTimes =
      (1 to cfg.checkpoints).map(c => math.max(1L, (n.toLong * c) / cfg.checkpoints))
    val rows = mutable.ArrayBuffer.empty[AccuracyRow]

    var next = 0
    prep.stream.foreach { e =>
      exact.update(e)
      sketches.foreach(_.update(e))
      while (next < checkpointTimes.length && e.time == checkpointTimes(next)) {
        val truth = prep.pairs.map { case (u, v) =>
          (exact.commonItems(u, v).toDouble, exact.jaccard(u, v))
        }
        sketches.foreach { sk =>
          val est = prep.pairs.map { case (u, v) => sk.estimatePair(u, v) }
          val sPairs = truth.zip(est).map { case ((s, _), (sHat, _)) => (s, sHat) }
          val jPairs = truth.zip(est).map { case ((_, j), (_, jHat)) => (j, jHat) }
          val (a, used) = Metrics.aape(sPairs)
          rows += AccuracyRow(prep.spec.name, sk.name, next + 1, e.time,
            a, Metrics.armse(jPairs), used)
        }
        next += 1
      }
    }
    rows.toSeq
  }

  /** Convenience: prepare + run with the standard method set. */
  def evaluate(spec: DatasetSpec, cfg: EvalConfig): Seq[AccuracyRow] = {
    val prep = prepare(spec, cfg)
    runAccuracy(prep, cfg, methods(cfg, prep.numUsers))
  }
}
