package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic datasets for Spark-level tests: the fully dynamic edge
  * streams of the VOS reproduction, deterministic in their seed so the
  * DuckDB oracle sees identical input.
  */
object SynthData {

  /** Fully dynamic bipartite edge stream of a synthetic dataset analog as
    * a Dataset[EdgeEvent] (columns user, item, insert, time), ordered by
    * arrival time. See `repro.stream.{GraphGen, DynamicStreamGen}` and
    * DESIGN.md § 5 for the generation model.
    */
  def edgeStream(
      spark: SparkSession,
      spec: repro.stream.DatasetSpec,
      d: Double = 0.5,
      r: Double = 0.5,
      seed: Long = 1234L,
  ): org.apache.spark.sql.Dataset[repro.stream.EdgeEvent] = {
    import spark.implicits._
    val events = repro.stream.DynamicStreamGen
      .generate(repro.stream.GraphGen.baseEdges(spec), d, r, seed)
    spark.createDataset(events)
  }

  /** Same stream as a plain DataFrame with the action spelled "+" / "-"
    * (the paper's notation) — convenient for SQL-level tests and the
    * DuckDB oracle.
    */
  def edgeStreamDF(
      spark: SparkSession,
      spec: repro.stream.DatasetSpec,
      d: Double = 0.5,
      r: Double = 0.5,
      seed: Long = 1234L,
  ): DataFrame = {
    edgeStream(spark, spec, d, r, seed)
      .select(
        col("user"), col("item"),
        when(col("insert"), lit("+")).otherwise(lit("-")) as "action",
        col("time"),
      )
  }
}
