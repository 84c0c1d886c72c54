package repro.eval

import scala.collection.mutable
import repro.baselines.{ExactSim, MinHashDyn, OPHDyn, RandomPairing}
import repro.core.{SimilaritySketch, VOSHashes, VOSSketch}
import repro.stream.{DatasetSpec, DynamicStreamGen, EdgeEvent, GraphGen}

/** Evaluation configuration mirroring the paper's § V setup.
  *
  * @param kBaseline   registers per user for MinHash/OPH/RP (paper: k=100);
  *                    VOS gets `k_vos = λ·32·k` ([[VOSSketch.paperK]])
  * @param topUsers    number of largest-cardinality users tracked
  *                    (paper: 5000 out of millions; 150 here, where every
  *                    tracked user still holds hundreds of items)
  * @param checkpoints number of evenly spaced evaluation times
  * @param d           deletion probability of the stream generator
  * @param r           re-subscription probability
  * @param seed        seed for stream scheduling and sketches
  */
final case class EvalConfig(
    kBaseline: Int = 100,
    topUsers: Int = 150,
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

/** The one experiment setup of the paper's § V, and the sequential
  * evaluation that replays it: the method roster at memory parity, the
  * tracked users and pairs, and the checkpoints behind Figures 2–3 (tables
  * T1–T6 in DESIGN.md § 6).
  */
object Harness {

  /** Build the dynamic stream and tracked pairs for `spec`. */
  def prepare(spec: DatasetSpec, cfg: EvalConfig): PreparedDataset = {
    val base   = GraphGen.baseEdges(spec)
    val stream = DynamicStreamGen.generate(base, cfg.d, cfg.r, cfg.seed ^ spec.seed)

    // Final sets → top users → every pair of them with ≥1 common item.
    val finalSets = new ExactSim
    stream.foreach(finalSets.update)
    val top = topUsers(finalSets, cfg.topUsers)
    val pairs = for {
      i <- top.indices
      j <- i + 1 until top.length
      if finalSets.commonItems(top(i), top(j)) > 0
    } yield (top(i), top(j))
    PreparedDataset(spec, stream, pairs)
  }

  /** The tracked users (paper § V): the `n` users with the largest sets in
    * `finalSets`, ties broken by the smaller id.
    */
  def topUsers(finalSets: ExactSim, n: Int): IndexedSeq[Long] =
    finalSets.users.toIndexedSeq.map(u => (-finalSets.cardinality(u), u)).sorted.take(n).map(_._2)

  /** The four methods under test, in table order, as factories of fresh
    * sketches at the paper's memory parity: MinHash/OPH/RP get `kBaseline`
    * 32-bit registers per user; VOS gets `k_vos = λ·32·k`
    * ([[VOSSketch.paperK]]) and `m` shared bits, which the paper sets to
    * `32·k·|U|` ([[VOSSketch.paperM]]).
    */
  def methods(cfg: EvalConfig, m: Int): Seq[() => SimilaritySketch] = Seq(
    () => new VOSSketch(VOSHashes(VOSSketch.paperK(cfg.kBaseline), m, cfg.seed)),
    () => new MinHashDyn(cfg.kBaseline, cfg.seed + 1),
    () => new OPHDyn(cfg.kBaseline, cfg.seed + 2),
    () => new RandomPairing(cfg.kBaseline, cfg.seed + 3),
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
        val truth = prep.pairs.map { case (u, v) => exact.estimatePair(u, v) }
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

  /** The rows of T3–T6 (Fig 3): prepare `spec`, then run the four methods
    * at memory parity over its `numUsers` users. `GraphGen` gives every
    * user a base edge, so all of them appear in the stream.
    */
  def evaluate(spec: DatasetSpec, cfg: EvalConfig): Seq[AccuracyRow] =
    runAccuracy(prepare(spec, cfg), cfg,
      methods(cfg, VOSSketch.paperM(cfg.kBaseline, spec.numUsers)).map(_()))
}
