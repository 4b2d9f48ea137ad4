package repro.perfbench

import java.nio.file.{Files, Path}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{OutputMode, StreamingQueryProgress}
import repro.core.{Event, Pattern}
import repro.harness.BenchHarness.DatasetSpec
import repro.spark.{AdaptiveCepStream, Cep, CepConfig}
import scala.jdk.CollectionConverters._

/** The streaming workload: `keys` independent sub-streams of `ds`, one per
  * key, with disjoint event ids and a seed per key, fed to
  * `AdaptiveCepStream.detect` in fixed-size micro-batches. Each batch holds
  * `batchPerKey` consecutive events of every key; the next batch is added
  * only after `processAllAvailable()` returns.
  */
final case class StreamSpec(
    name: String,
    ds: DatasetSpec,
    len: Int,
    cfg: CepConfig,
    keys: Int,
    batches: Int,
    batchPerKey: Int,
    warmupBatches: Int,
) extends Workload {
  val pattern: Pattern = ds.pattern(len)
  def perKey: Int = batches * batchPerKey
}

/** One timed streaming pass: a fresh query over the whole keyed stream. */
final class StreamPass(
    val seconds: Double,
    val batchNs: Array[Long],
    val digest: MatchDigest,
    val progress: Seq[StreamingQueryProgress],
    val allocBytes: Long,
    val gcMs: Long,
)

object Streaming {
  /** Keys own disjoint id ranges of this width; `keyOf` recovers the key. */
  val KeyStride: Long = 1L << 32

  def keyOf(e: Event): Int = (e.id / KeyStride).toInt

  /** Per-key sub-streams, each in timestamp order. */
  def keyedStreams(w: StreamSpec, count: Int, seed: Long): Vector[Array[Event]] =
    Vector.tabulate(w.keys) { k =>
      w.ds.gen(w.len, count, MatchDigest.mix(seed * 31 + k)).iterator
        .map(e => e.copy(id = e.id + k * KeyStride)).toArray
    }

  /** Micro-batch `b`: events `[b·B, (b+1)·B)` of every key. */
  def batch(streams: Vector[Array[Event]], b: Int, perKey: Int): Seq[Event] =
    streams.flatMap(s => s.slice(b * perKey, (b + 1) * perKey))

  def session(workDir: Path, keys: Int): SparkSession = {
    val cores = math.min(keys, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("warehouse").toString)
      .config("spark.sql.shuffle.partitions", keys.toString)
      .config("spark.sql.streaming.numRecentProgressUpdates", "100000")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  private var queries = 0

  /** Feeds `batches` micro-batches through a fresh query and times each from
    * `addData` until `processAllAvailable()` returns.
    */
  def pass(spark: SparkSession, workDir: Path, w: StreamSpec,
           streams: Vector[Array[Event]], batches: Int): StreamPass = {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    queries += 1
    val name = s"perfbench_q$queries"
    val input = MemoryStream[Event]
    val query = AdaptiveCepStream.detect(input.toDS(), w.pattern, w.cfg, keyOf)
      .writeStream
      .format("memory")
      .queryName(name)
      .option("checkpointLocation", workDir.resolve(s"ckpt-$queries").toString)
      .outputMode(OutputMode.Append())
      .start()
    try {
      val data = (0 until batches).map(b => batch(streams, b, w.batchPerKey))
      val batchNs = new Array[Long](batches)
      System.gc()
      val gc0 = Jvm.gcMillis()
      val alloc0 = Jvm.totalAllocated()
      val start = System.nanoTime()
      var b = 0
      while (b < batches) {
        val t0 = System.nanoTime()
        input.addData(data(b))
        query.processAllAvailable()
        batchNs(b) = System.nanoTime() - t0
        b += 1
      }
      val secs = (System.nanoTime() - start) / 1e9
      val alloc = Jvm.totalAllocated() - alloc0
      val gcMs = Jvm.gcMillis() - gc0
      val dig = new MatchDigest
      spark.sql(s"SELECT eventIds FROM $name").collect()
        .foreach(r => dig.addIds(r.getSeq[Long](0)))
      val progress = query.recentProgress.toSeq.filter(_.numInputRows > 0)
      new StreamPass(secs, batchNs, dig, progress, alloc, gcMs)
    } finally {
      query.stop()
      spark.sql(s"DROP VIEW IF EXISTS $name")
    }
  }

  /** In-process reference for the keyed stream: one `AdaptiveCepEngine` per
    * key over that key's events in timestamp order, exactly the state the
    * operator keeps for the key. The state is serialized after every
    * micro-batch; returns the digest, the summed counters, the mean summed
    * state bytes per batch and the mean serialize + deserialize ms per key
    * and batch.
    */
  def reference(w: StreamSpec, streams: Vector[Array[Event]]): (MatchDigest, Counters, Double, Double) = {
    val dig = new MatchDigest
    var total: Counters = null
    var bytes = 0L
    var serdeNs = 0L
    streams.foreach { s =>
      val eng = Cep.makeEngine(w.pattern, w.cfg)
      val kd = new MatchDigest
      var i = 0
      while (i < s.length) {
        eng.onEvent(s(i)).foreach(kd.add)
        i += 1
        if (i % w.batchPerKey == 0) {
          val t0 = System.nanoTime()
          val b = Jvm.serialize(eng)
          Jvm.deserialize(b)
          serdeNs += System.nanoTime() - t0
          bytes += b.length
        }
      }
      dig.merge(kd)
      val c = InProcess.counters(eng, kd)
      total = if (total == null) c else total + c
    }
    (dig, total.copy(digest = dig.toString), bytes.toDouble / w.batches,
      serdeNs / 1e6 / (w.batches.toLong * w.keys))
  }

  /** The traced loop over every key's events; its spans sum over keys. */
  def traced(w: StreamSpec, streams: Vector[Array[Event]]): (Double, Seq[TracedLoop], Counters) = {
    val dig = new MatchDigest
    var secs = 0.0
    val loops = streams.map { s =>
      val loop = new TracedLoop(w.pattern, w.cfg, None)
      val t0 = System.nanoTime()
      var i = 0
      while (i < s.length) { loop.onEvent(s(i)).foreach(dig.add); i += 1 }
      secs += (System.nanoTime() - t0) / 1e9
      loop
    }
    val c = loops.map(l => l.counters(dig)).reduce(_ + _)
    (secs, loops, c.copy(digest = dig.toString))
  }

  /** Untraced per-key replay, timed like `traced`, for the tracing overhead. */
  def untracedSeconds(w: StreamSpec, streams: Vector[Array[Event]]): Double =
    streams.map { s =>
      val eng = Cep.makeEngine(w.pattern, w.cfg)
      val t0 = System.nanoTime()
      var i = 0
      while (i < s.length) { eng.onEvent(s(i)); i += 1 }
      (System.nanoTime() - t0) / 1e9
    }.sum

  def durationMs(p: StreamingQueryProgress, key: String): Double =
    Option(p.durationMs.get(key)).map(_.doubleValue).getOrElse(0.0)

  def deleteRecursively(p: Path): Unit =
    if (Files.exists(p)) {
      val walk = Files.walk(p)
      try walk.sorted(java.util.Comparator.reverseOrder[Path]()).iterator().asScala.foreach(Files.delete)
      finally walk.close()
    }
}
