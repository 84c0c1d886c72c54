package vosbench

/** The metrics a run prints, by name and unit; `BENCHMARK.json` lists the
  * same. An untraced run prints the end-to-end ones, a traced run the
  * per-layer ones.
  */
object Metrics {

  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s"             -> "s",
    "ingest_eps"          -> "events/s",
    "sketch_heap_bytes"   -> "bytes",
    "query_pps"           -> "pairs/s",
    "replay_s"            -> "s",
    "baseline_ingest_eps" -> "events/s",
  )

  /** Per-layer metrics. Those of the Spark layers are measured on
    * `spark-build` only and read 0 on the other workloads.
    */
  val perLayer: Seq[(String, String)] = Seq(
    "gen.graph_s"                 -> "s",
    "gen.stream_s"                -> "s",
    "hashing.position_ns"         -> "ns",
    "bitarray.flip_ns"            -> "ns",
    "vos.update_ns"               -> "ns",
    "vos.counter_ns"              -> "ns",
    "jvm.alloc_bytes_per_event"   -> "bytes",
    "jvm.gc_ms"                   -> "ms",
    "vos.counter_bytes_per_user"  -> "bytes",
    "vos.sequential_build_ms"     -> "ms",
    "hashing.f_ns"                -> "ns",
    "bitarray.get_ns"             -> "ns",
    "vos.alpha_us"                -> "us",
    "vos.rebuild_us"              -> "us",
    "bitarray.hamming_ns"         -> "ns",
    "estimator.estimate_ns"       -> "ns",
    "minhash.update_ns"           -> "ns",
    "oph.update_ns"               -> "ns",
    "rp.update_ns"                -> "ns",
    "vos.merge_ms"                -> "ms",
    "bitarray.xor_ms"             -> "ms",
    "agg.kryo_ser_ms"             -> "ms",
    "agg.kryo_bytes"              -> "bytes",
    "agg.task_run_ms"             -> "ms",
    "agg.task_gc_ms"              -> "ms",
    "stream.microbatch_ms"        -> "ms",
    "stream.eps"                  -> "events/s",
    "stream.array.add_batch_ms"   -> "ms",
    "stream.counter.add_batch_ms" -> "ms",
    "stream.planning_ms"          -> "ms",
    "stream.wal_commit_ms"        -> "ms",
    "bitarray.serde_ms"           -> "ms",
    "stream.route_ms"             -> "ms",
    "stream.microbatch_out_bytes" -> "bytes",
    "stream.state_bytes"          -> "bytes",
    "stream.state_rows"           -> "count",
    "stream.assemble_ms"          -> "ms",
    "stream.collect_ms"           -> "ms",
    "trace.overhead_s"            -> "s",
    "trace.spans"                 -> "count",
  )
}
