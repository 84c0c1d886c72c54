package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.baselines.ExactSim
import repro.stream.{DatasetSpec, DynamicStreamGen, GraphGen}

/** DuckDB oracle checks for the *exact* substrate: the ground truth every
  * accuracy table is scored against. The event log is reduced to current
  * sets / cardinalities / pairwise intersections in Spark SQL and the
  * identical computation runs on DuckDB; a disagreement would mean the
  * truth side of AAPE/ARMSE is wrong.
  */
class OracleSpec extends SparkSpec {

  private lazy val events = TestStreams.random(numUsers = 12, numItems = 25, length = 600, seed = 7)

  /** Small feasible stream as a DataFrame with columns (u, i, a, t). */
  private lazy val eventsDf: DataFrame = {
    val s = spark
    import s.implicits._
    events.map(e => (e.user, e.item, if (e.insert) "+" else "-", e.time))
      .toDF("u", "i", "a", "t")
  }

  private lazy val exact: ExactSim = {
    val ex = new ExactSim
    events.foreach(ex.update)
    ex
  }

  test("current-set reconstruction (parity of +/-) matches DuckDB") {
    val cur = eventsDf.groupBy("u", "i")
      .agg(sum(when(col("a") === "+", 1).otherwise(-1)) as "p")
      .filter(col("p") === 1)
      .select("u", "i")
    Oracle.assertEquivalent(
      cur,
      """SELECT u, i FROM events
        |GROUP BY u, i
        |HAVING SUM(CASE WHEN a = '+' THEN 1 ELSE -1 END) = 1""".stripMargin,
      "events" -> eventsDf)
  }

  test("current-set reconstruction matches ExactSim") {
    val cur = eventsDf.groupBy("u", "i")
      .agg(sum(when(col("a") === "+", 1).otherwise(-1)) as "p")
      .filter(col("p") === 1)
      .select("u", "i")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)))
      .toSet
    val sets = TestStreams.finalSets(events)
    assert(cur == (for ((u, items) <- sets.toSeq; i <- items) yield (u, i)).toSet)
    assert(exact.users.toSet == sets.keySet)
    sets.foreach { case (u, items) => assert(exact.cardinality(u) == items.size, s"user $u") }
  }

  test("per-user cardinalities match DuckDB") {
    val cards = eventsDf.groupBy("u")
      .agg(sum(when(col("a") === "+", 1).otherwise(-1)) as "n")
      .filter(col("n") =!= 0)
    Oracle.assertEquivalent(
      cards,
      """SELECT u, SUM(CASE WHEN a = '+' THEN 1 ELSE -1 END) AS n FROM events
        |GROUP BY u
        |HAVING SUM(CASE WHEN a = '+' THEN 1 ELSE -1 END) <> 0""".stripMargin,
      "events" -> eventsDf)
  }

  test("per-user cardinalities match ExactSim counters") {
    val cards = eventsDf.groupBy("u")
      .agg(sum(when(col("a") === "+", 1).otherwise(-1)) as "n")
      .filter(col("n") =!= 0)
      .collect().map(r => (r.getLong(0), r.getLong(1))).toMap
    exact.users.foreach(u => assert(cards(u) == exact.cardinality(u), s"user $u"))
    assert(cards.keySet == exact.users.toSet)
  }

  test("pairwise common-item counts match DuckDB") {
    val cur = eventsDf.groupBy("u", "i")
      .agg(sum(when(col("a") === "+", 1).otherwise(-1)) as "p")
      .filter(col("p") === 1)
      .select("u", "i")
    val e1 = cur.select(col("u") as "u1", col("i"))
    val e2 = cur.select(col("u") as "u2", col("i"))
    val pairCounts = e1.join(e2, "i")
      .filter(col("u1") < col("u2"))
      .groupBy("u1", "u2").agg(count(lit(1)) as "c")
    Oracle.assertEquivalent(
      pairCounts,
      """WITH cur AS (
        |  SELECT CAST(u AS BIGINT) AS u, i FROM events
        |  GROUP BY u, i
        |  HAVING SUM(CASE WHEN a = '+' THEN 1 ELSE -1 END) = 1
        |)
        |SELECT e1.u AS u1, e2.u AS u2, COUNT(*) AS c
        |FROM cur e1 JOIN cur e2 ON e1.i = e2.i AND e1.u < e2.u
        |GROUP BY e1.u, e2.u""".stripMargin,
      "events" -> eventsDf)
  }

  test("pairwise common-item counts match ExactSim") {
    val cur = eventsDf.groupBy("u", "i")
      .agg(sum(when(col("a") === "+", 1).otherwise(-1)) as "p")
      .filter(col("p") === 1)
    val e1 = cur.select(col("u") as "u1", col("i"))
    val e2 = cur.select(col("u") as "u2", col("i"))
    val pairCounts = e1.join(e2, "i")
      .filter(col("u1") < col("u2"))
      .groupBy("u1", "u2").agg(count(lit(1)) as "c")
      .collect().map(r => ((r.getLong(0), r.getLong(1)), r.getLong(2))).toMap
    for (u <- 0L until 12L; v <- (u + 1) until 12L) {
      val expected = exact.commonItems(u, v)
      assert(pairCounts.getOrElse((u, v), 0L) == expected, s"pair ($u,$v)")
    }
  }

  test("generated dataset stream: final cardinalities via SQL match DuckDB") {
    val spec = DatasetSpec.scaled(DatasetSpec.flickr, 0.02)
    val df = SynthData.edgeStreamDF(spark, spec, seed = 88L)
      .withColumnRenamed("user", "u").withColumnRenamed("item", "i")
      .withColumnRenamed("action", "a").withColumnRenamed("time", "t")
    val cards = df.groupBy("u")
      .agg(sum(when(col("a") === "+", 1).otherwise(-1)) as "n")
      .filter(col("n") =!= 0)
    Oracle.assertEquivalent(
      cards,
      """SELECT u, SUM(CASE WHEN a = '+' THEN 1 ELSE -1 END) AS n FROM events
        |GROUP BY u
        |HAVING SUM(CASE WHEN a = '+' THEN 1 ELSE -1 END) <> 0""".stripMargin,
      "events" -> df)
  }

  test("edgeStream Dataset agrees with edgeStreamDF action encoding") {
    val spec = DatasetSpec.scaled(DatasetSpec.youtube, 0.02)
    val a = SynthData.edgeStream(spark, spec, seed = 5L).collect()
    val b = SynthData.edgeStreamDF(spark, spec, seed = 5L).collect()
    assert(a.length == b.length)
    a.zip(b).foreach { case (ev, row) =>
      assert(row.getString(2) == (if (ev.insert) "+" else "-"))
      assert(row.getLong(0) == ev.user && row.getLong(1) == ev.item)
    }
    // And the stream itself is feasible.
    DynamicStreamGen.assertFeasible(a.toIndexedSeq.sortBy(_.time))
  }

  test("base-edge generation has no duplicate edges (SQL check)") {
    val s = spark
    import s.implicits._
    val spec = DatasetSpec.scaled(DatasetSpec.orkut, 0.02)
    val edges = repro.TestStreams.pairs(GraphGen.baseEdges(spec)).toDF("u", "i")
    val dupes = edges.groupBy("u", "i").agg(count(lit(1)) as "c").filter(col("c") > 1)
    assert(dupes.isEmpty)
  }
}
