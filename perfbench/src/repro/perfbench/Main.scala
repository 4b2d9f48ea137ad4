package repro.perfbench

import java.nio.file.{Files, Path, Paths}
import repro.core.Event
import repro.harness.BenchHarness
import repro.spark.{AlgoKind, CepConfig, DecisionKind}
import scala.collection.mutable.ArrayBuffer

/** A benchmark workload, selected by name on the command line. */
trait Workload { def name: String }

/** The repository benchmark. One invocation runs one workload:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
  * }}}
  *
  * With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
  * per-layer metrics of a traced run; the last stdout line is the result
  * object. Lines before it, starting with `#`, are the human-readable report.
  * The exit code is 1 when any match set or counter check fails.
  */
object Main {

  /** Set-up rounds per invocation; `setup_s` is their median. The first
    * round also pays for the JIT, so it is never the median. Streaming
    * rounds each start a SparkSession, the first one cold (15–30 s), so
    * there are fewer of them.
    */
  val SetupRounds = 5
  val StreamSetupRounds = 3

  val workloads: Vector[Workload] = Vector(
    // Lazy-NFA strategy [33]: A on every D evaluation, so D/A/deploy/switchover weigh most.
    InProcessSpec("traffic-zstream-l6-uncond", BenchHarness.traffic, 6,
      CepConfig(AlgoKind.ZStream, DecisionKind.Unconditional), refAlgo = AlgoKind.Greedy,
      events = 800000, passSeconds = 1.6, batchEvents = 1000, warmupEvents = 200000),
    // The only workload through the Spark operator.
    StreamSpec("stream-traffic-keyed", BenchHarness.traffic, 5,
      CepConfig(AlgoKind.Greedy, DecisionKind.Invariant(0.2, 1)), keys = 4,
      batches = 100, batchPerKey = 50, warmupBatches = 3),
  )

  final class Report {
    var attempted = 0L
    var failed = 0L
    val metrics = ArrayBuffer.empty[Metric]
    def note(s: String): Unit = println(s"# $s")
    def metric(n: String, v: Double, unit: String): Unit = metrics += Metric(n, v, unit)

    /** Records one run; it fails if any `differ` result is non-empty. */
    def run(what: String, problems: String*): Unit = {
      attempted += 1
      val p = problems.filter(_.nonEmpty)
      if (p.nonEmpty) { failed += 1; p.foreach(x => note(s"FAILED $what: $x")) }
    }
  }

  private def differ(what: String, got: Any, want: Any): String =
    if (got == want) "" else s"$what $got != $want"

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def req(k: String): String = opts.getOrElse(k, usage(s"missing --$k"))
    val wname = req("workload")
    val seed = req("seed").toLong
    val seconds = req("seconds").toDouble
    val trace = req("trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, got $t")
    }
    val workDir = Paths.get(req("work-dir")).toAbsolutePath
    val w = workloads.find(_.name == wname)
      .getOrElse(usage(s"unknown workload $wname; known: ${workloads.map(_.name).mkString(", ")}"))

    val r = new Report
    r.note(s"workload=$wname seed=$seed seconds=$seconds trace=${if (trace) 1 else 0}")
    w match {
      case spec: InProcessSpec => runInProcess(spec, seed, seconds, trace, r)
      case spec: StreamSpec =>
        Files.createDirectories(workDir)
        try runStreaming(spec, seed, trace, workDir, r)
        finally Streaming.deleteRecursively(workDir)
    }
    val correct = r.failed == 0
    println(ResultLine.render(correct, r.attempted, r.failed, r.metrics.toSeq))
    Console.out.flush()
    // Spark leaves non-daemon threads behind; exit explicitly.
    System.exit(if (correct) 0 else 1)
  }

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg")
    System.exit(2)
    throw new IllegalStateException(msg)
  }

  private def warmSeed(seed: Long): Long = MatchDigest.mix(seed ^ 0x5EEDL)

  private def fmt(xs: Seq[Double]): String = xs.map(x => f"$x%.4g").mkString("[", ", ", "]")

  // ---------------------------------------------------------------- in-process

  def runInProcess(w: InProcessSpec, seed: Long, seconds: Double, trace: Boolean, r: Report): Unit = {
    val warmSamples = new Samples(1, w.warmupEvents, w.batchEvents)

    // Set-up: stream generation, warm-up statistics, the first plan, and the
    // workload's own code path run untimed so the JIT has compiled it.
    var prep: Prepared = null
    val setups = (1 to SetupRounds).map { _ =>
      val t0 = System.nanoTime()
      prep = InProcess.prepare(w, w.events, seed)
      InProcess.newEngine(w, prep)
      val warm = InProcess.prepare(w, w.warmupEvents, warmSeed(seed))
      warmSamples.clear()
      InProcess.timedPass(w, warm, warmSamples)
      if (trace) InProcess.tracedPass(w, warm)
      (System.nanoTime() - t0) / 1e9
    }
    r.note(s"setup rounds (s): ${fmt(setups)}")

    // A fixed number of passes, so that a slower commit is not measured over
    // fewer of them; traced passes alternate with untraced ones.
    val traced = ArrayBuffer.empty[(Double, TracedLoop, Counters)]
    val samples = new Samples(w.passes(seconds), prep.timed, w.batchEvents)
    val passes = (1 to w.passes(seconds)).map { _ =>
      val p = InProcess.timedPass(w, prep, samples)
      if (trace) traced += InProcess.tracedPass(w, prep)
      p
    }
    val state = InProcess.statePass(w, prep)
    val ref = InProcess.reference(w, prep)

    val base = passes.head.counters
    r.note(s"counters: ${base.render}")
    r.note(s"reference (static ${w.refAlgo} plan) digest=$ref")
    passes.zipWithIndex.foreach { case (p, i) =>
      r.run(s"pass $i", differ("match digest", p.counters.digest, ref.toString),
        differ("nondeterministic counters", p.counters.render, base.render))
    }
    r.run("state pass", differ("nondeterministic counters", state.counters.render, base.render))
    traced.zipWithIndex.foreach { case ((_, _, c), i) =>
      r.run(s"traced pass $i", differ("traced counters", c.render, base.render))
    }

    val n = passes.head.events
    r.note(s"passes=${passes.size} events/pass=$n latency samples=${samples.nLat} " +
      s"batches=${samples.nBatch} (batch = ${w.batchEvents} events)")
    r.note(s"throughput_eps per pass: ${fmt(passes.map(_.throughput))}")
    val med = (f: PassResult => Double) => Stat.median(passes.map(f))
    // Every figure pools the samples of all the run's passes.
    val lat = (q: Double) => Stat.percentile(samples.lat, 0, samples.nLat, q) / 1e3
    val blk = (q: Double) => Stat.percentile(samples.batch, 0, samples.nBatch, q) / 1e6
    if (!trace) {
      r.metric("throughput_eps", passes.size.toDouble * n / passes.map(_.seconds).sum, "1/s")
      r.metric("latency_p50_us", lat(0.50), "us")
      r.metric("latency_p99_us", lat(0.99), "us")
      r.metric("batch_p50_ms", blk(0.50), "ms")
      r.metric("batch_p90_ms", blk(0.90), "ms")
      r.metric("setup_s", Stat.median(setups), "s")
      r.metric("state_bytes", state.meanBytes, "bytes")
    } else {
      val spans = new Spans
      traced.foreach { case (_, loop, _) => spans.merge(loop.spans) }
      // Counts come from one traced pass (they are identical across passes);
      // per-call times and shares from the spans of all traced passes.
      val loops = Seq(traced.head._2)
      val tracedS = Stat.median(traced.map(_._1).toSeq)
      val untracedS = med(_.seconds)
      r.note(s"traced pass (s): ${fmt(traced.map(_._1).toSeq)}; untraced pass (s): ${fmt(passes.map(_.seconds))}")
      layerMetrics(r, spans, loops, traced.map(_._1).sum, tracedS / untracedS - 1.0,
        allocPerEvent = med(_.allocBytes.toDouble) / n, gcMs = med(_.gcMs.toDouble),
        serdeMs = state.serdeMs, spark = None)
    }
  }

  // ---------------------------------------------------------------- streaming

  def runStreaming(w: StreamSpec, seed: Long, trace: Boolean, workDir: Path, r: Report): Unit = {
    // Set-up: stream generation, a SparkSession, and a throwaway query over
    // warm-up batches so the operator's code path is compiled.
    var streams: Vector[Array[Event]] = null
    var spark: org.apache.spark.sql.SparkSession = null
    val setups = (1 to StreamSetupRounds).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      streams = Streaming.keyedStreams(w, w.perKey, seed)
      spark = Streaming.session(workDir, w.keys)
      val warm = Streaming.keyedStreams(w, w.warmupBatches * w.batchPerKey, warmSeed(seed))
      Streaming.pass(spark, workDir, w, warm, w.warmupBatches)
      if (trace) Streaming.traced(w, warm)
      (System.nanoTime() - t0) / 1e9
    }
    r.note(s"setup rounds (s): ${fmt(setups)}")

    // One query over all batches: a fixed amount of work, whatever `--seconds` is.
    val pass = try Streaming.pass(spark, workDir, w, streams, w.batches) finally spark.stop()

    val (ref, refCounters, stateBytes, serdeMs) = Streaming.reference(w, streams)
    r.note(s"counters (sum over ${w.keys} keys, in-process): ${refCounters.render} state_bytes=$stateBytes")
    r.run("streaming pass", differ("match digest", pass.digest.toString, ref.toString),
      differ("micro-batches", pass.progress.size, w.batches))
    val again = Streaming.reference(w, streams)
    r.run("in-process replay", differ("nondeterministic counters", again._2.render, refCounters.render),
      differ("nondeterministic state_bytes", again._3, stateBytes))

    val events = w.keys.toLong * w.perKey
    r.note(s"events=$events batches=${w.batches} (batch = ${w.keys} keys x ${w.batchPerKey} events)")
    if (!trace) {
      val pct = (q: Double) => Stat.percentile(pass.batchNs.clone(), 0, pass.batchNs.length, q).toDouble
      r.metric("throughput_eps", events / pass.seconds, "1/s")
      // An event's detection latency is the latency of the micro-batch that
      // carries it. The batches are too few for a p99 with ten samples above
      // it, so the tail figure is the highest percentile that has ten.
      val tail = math.min(0.99, 1.0 - 10.0 / w.batches)
      r.metric("latency_p50_us", pct(0.50) / 1e3, "us")
      r.metric("latency_p99_us", pct(tail) / 1e3, "us")
      r.metric("batch_p50_ms", pct(0.50) / 1e6, "ms")
      r.metric("batch_p90_ms", pct(0.90) / 1e6, "ms")
      r.metric("setup_s", Stat.median(setups), "s")
      r.metric("state_bytes", stateBytes, "bytes")
    } else {
      val (tracedS, loops, tc) = Streaming.traced(w, streams)
      r.run("traced replay", differ("traced counters", tc.render, refCounters.render))
      val untracedS = Streaming.untracedSeconds(w, streams)
      val spans = new Spans
      loops.foreach(l => spans.merge(l.spans))
      val prog = pass.progress
      val per = (f: org.apache.spark.sql.streaming.StreamingQueryProgress => Double) =>
        prog.map(f).sum / prog.size
      val op = (p: org.apache.spark.sql.streaming.StreamingQueryProgress) => p.stateOperators.head
      val sparkMetrics = Seq(
        Metric("spark.trigger_ms", per(Streaming.durationMs(_, "triggerExecution")), "ms"),
        Metric("spark.add_batch_ms", per(Streaming.durationMs(_, "addBatch")), "ms"),
        Metric("spark.commit_ms", per(op(_).commitTimeMs.toDouble), "ms"),
        Metric("spark.update_ms", per(op(_).allUpdatesTimeMs.toDouble), "ms"),
        Metric("spark.state_rows", per(op(_).numRowsTotal.toDouble), "count"),
      )
      layerMetrics(r, spans, loops, tracedS, tracedS / untracedS - 1.0,
        allocPerEvent = pass.allocBytes.toDouble / events, gcMs = pass.gcMs.toDouble,
        serdeMs = serdeMs, spark = Some(sparkMetrics))
    }
  }

  // ---------------------------------------------------------------- per-layer

  private def layerMetrics(r: Report, sp: Spans, loops: Seq[TracedLoop], loopS: Double,
                           overhead: Double, allocPerEvent: Double, gcMs: Double,
                           serdeMs: Double, spark: Option[Seq[Metric]]): Unit = {
    import Spans._
    val loopNs = loopS * 1e9
    def per(layer: Int, scale: Double): Double =
      if (sp.calls(layer) == 0) 0.0 else sp.nanos(layer).toDouble / sp.calls(layer) / scale
    def share(ns: Long): Double = ns / loopNs
    val sum = (f: TracedLoop => Long) => loops.map(f).sum
    val runs = sum(_.plannerRuns)
    val partial = sum(_.partialMatchesCreated)
    val engineNs = sp.nanos(OrderEng) + sp.nanos(TreeEng)
    r.note("span totals (ms): " + names.indices.map(i =>
      f"${names(i)}=${sp.nanos(i) / 1e6}%.1f/${sp.calls(i)}").mkString(" "))

    r.metric("stats.observe_ns", per(Observe, 1.0), "ns")
    r.metric("stats.share", share(sp.nanos(Observe) + sp.nanos(Snapshot)), "ratio")
    r.metric("stats.snapshot_us", per(Snapshot, 1e3), "us")
    r.metric("stats.snapshots", sum(_.decideEvals).toDouble, "count")
    r.metric("adapt.decide_ns", per(Decide, 1.0), "ns")
    r.metric("adapt.decide_evals", sum(_.decideEvals).toDouble, "count")
    r.metric("adapt.decide_checks", sum(_.decideChecks).toDouble, "count")
    r.metric("adapt.rearm_us", per(Rearm, 1e3), "us")
    r.metric("algo.generate_us", per(Generate, 1e3), "us")
    r.metric("algo.runs", runs.toDouble, "count")
    r.metric("algo.compare_us", per(Compare, 1e3), "us")
    r.metric("algo.fruitless_ratio", if (runs == 0) 0.0 else sum(_.fruitlessRuns).toDouble / runs, "ratio")
    r.metric("adapt.deploys", sum(_.replacements).toDouble, "count")
    r.metric("adapt.deploy_us", per(Deploy, 1e3), "us")
    r.metric("adapt.live_engines_peak", loops.map(_.liveEnginesPeak).max.toDouble, "count")
    r.metric("adapt.overlap_share", if (engineNs == 0) 0.0 else sp.nanos(Overlap).toDouble / engineNs, "ratio")
    // Every benchmark event is of a pattern type, so `observe` calls count events.
    r.metric("adapt.output_ns", sp.nanos(Output).toDouble / sp.calls(Observe).max(1L), "ns")
    r.metric("engine.order.on_event_ns", per(OrderEng, 1.0), "ns")
    r.metric("engine.order.share", share(sp.nanos(OrderEng)), "ratio")
    r.metric("engine.tree.on_event_ns", per(TreeEng, 1.0), "ns")
    r.metric("engine.tree.share", share(sp.nanos(TreeEng)), "ratio")
    r.metric("engine.partial_matches", partial.toDouble, "count")
    r.metric("engine.match_yield", if (partial == 0) 0.0 else sum(_.matches).toDouble / partial, "ratio")
    r.metric("jvm.alloc_bytes_per_event", allocPerEvent, "bytes")
    r.metric("jvm.gc_ms", gcMs, "ms")
    // The Spark progress metrics exist only where a query runs.
    spark.getOrElse(Seq("spark.trigger_ms" -> "ms", "spark.add_batch_ms" -> "ms",
      "spark.commit_ms" -> "ms", "spark.update_ms" -> "ms", "spark.state_rows" -> "count")
      .map { case (n, u) => Metric(n, 0.0, u) }).foreach(r.metrics += _)
    r.metric("spark.state_serde_ms", serdeMs, "ms")
    r.metric("trace.overhead_share", overhead, "ratio")
  }
}
