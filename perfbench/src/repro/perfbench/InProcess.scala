package repro.perfbench

import repro.core.{Event, Pattern}
import repro.core.adapt.AdaptiveCepEngine
import repro.core.stats.{StatisticsMonitor, Stats}
import repro.harness.BenchHarness.DatasetSpec
import repro.spark.{AlgoKind, Cep, CepConfig, DecisionKind}

/** An in-process workload: one stream of `ds`, replayed closed-loop through
  * `AdaptiveCepEngine.onEvent` (the next event is fed only after the call
  * returns).
  *
  * @param refAlgo      planner of the reference run: a static plan on the
  *                     other engine kind, whose match set must be identical
  * @param events       timed events per pass
  * @param passSeconds  wall time of one pass on the measuring host when the
  *                     benchmark was defined; `--seconds s` runs
  *                     `s / passSeconds` passes, so every commit does the
  *                     same number of passes whatever its speed
  * @param batchEvents  events per batch, the unit of `batch_p50_ms` /
  *                     `batch_p90_ms`; small enough for 100 batches per pass
  * @param warmupEvents events of the workload's own code path run untimed in
  *                     every set-up round, so the JIT has compiled it
  */
final case class InProcessSpec(
    name: String,
    ds: DatasetSpec,
    len: Int,
    cfg: CepConfig,
    refAlgo: AlgoKind,
    events: Int,
    passSeconds: Double,
    batchEvents: Int,
    warmupEvents: Int,
) extends Workload {
  val pattern: Pattern = ds.pattern(len)

  def passes(seconds: Double): Int = math.max(3, math.round(seconds / passSeconds).toInt)
}

/** A generated stream: a statistics prefix, which gives the planner its
  * initial statistics, followed by the timed events.
  */
final class Prepared(val events: Array[Event], val warmStats: Stats) {
  def timed: Int = events.length - InProcess.StatPrefix
}

/** One timed pass over the stream with a fresh engine. */
final class PassResult(
    val seconds: Double,
    val counters: Counters,
    val batches: Int,
    val allocBytes: Long,
    val gcMs: Long,
    val events: Int,
) {
  def throughput: Double = events / seconds
}

/** Per-call latencies and per-batch wall times of consecutive passes. */
final class Samples(passes: Int, events: Int, batchEvents: Int) {
  val lat = new Array[Long](passes * events)
  val batch = new Array[Long](passes * (events / batchEvents))
  var nLat = 0
  var nBatch = 0
  def clear(): Unit = { nLat = 0; nBatch = 0 }
}

/** The engine's serialized state sampled at evenly spaced checkpoints. */
final class StateSample(val counters: Counters, val meanBytes: Double, val serdeMs: Double)

object InProcess {
  /** Events fed to the statistics monitor only, before the first plan (as in
    * `BenchHarness.runOne`).
    */
  val StatPrefix = 2000
  /** Checkpoints at which the state is serialized for `state_bytes`. */
  val StateCheckpoints = 128

  def prepare(w: InProcessSpec, count: Int, seed: Long): Prepared = {
    val all = w.ds.gen(w.len, StatPrefix + count, seed).toArray
    val mon = new StatisticsMonitor(w.pattern, w.pattern.window * 4)
    var i = 0
    while (i < StatPrefix) { mon.observe(all(i)); i += 1 }
    new Prepared(all, mon.snapshot(all(StatPrefix - 1).ts))
  }

  private def observePrefix(p: Prepared, observe: Event => Unit): Unit = {
    var i = 0
    while (i < StatPrefix) { observe(p.events(i)); i += 1 }
  }

  def newEngine(w: InProcessSpec, p: Prepared): AdaptiveCepEngine = {
    val eng = Cep.makeEngine(w.pattern, w.cfg, Some(p.warmStats))
    observePrefix(p, eng.monitor.observe)
    eng
  }

  def counters(eng: AdaptiveCepEngine, dig: MatchDigest): Counters = {
    val c = eng.counters
    Counters(c.events, c.matches, eng.partialMatchesCreated, c.plannerRuns, c.replacements,
      c.fruitlessRuns, c.decisionEvals, eng.decision.checksPerformed, dig.toString)
  }

  /** Closed-loop replay with per-call latency and per-batch wall time. The
    * samples are appended to `samples`, so they pool over passes.
    */
  def timedPass(w: InProcessSpec, p: Prepared, samples: Samples): PassResult = {
    val eng = newEngine(w, p)
    val evs = p.events
    val n = p.timed
    val lat = samples.lat
    val batch = samples.batch
    val l0 = samples.nLat
    val b0 = samples.nBatch
    val dig = new MatchDigest
    System.gc()
    val gc0 = Jvm.gcMillis()
    val alloc0 = Jvm.threadAllocated()
    val start = System.nanoTime()
    var blockStart = start
    var b = b0
    var i = 0
    while (i < n) {
      val e = evs(StatPrefix + i)
      val t0 = System.nanoTime()
      val out = eng.onEvent(e)
      val t1 = System.nanoTime()
      lat(l0 + i) = t1 - t0
      out.foreach(dig.add)
      i += 1
      if (i % w.batchEvents == 0) {
        val now = System.nanoTime()
        batch(b) = now - blockStart
        blockStart = now
        b += 1
      }
    }
    val end = System.nanoTime()
    val alloc = Jvm.threadAllocated() - alloc0
    val gcMs = Jvm.gcMillis() - gc0
    samples.nLat = l0 + n
    samples.nBatch = b
    new PassResult((end - start) / 1e9, counters(eng, dig), b - b0, alloc, gcMs, n)
  }

  /** The traced loop over the same stream; returns its wall time in seconds. */
  def tracedPass(w: InProcessSpec, p: Prepared): (Double, TracedLoop, Counters) = {
    val loop = new TracedLoop(w.pattern, w.cfg, Some(p.warmStats))
    observePrefix(p, loop.monitor.observe)
    val evs = p.events
    val dig = new MatchDigest
    System.gc()
    val start = System.nanoTime()
    var i = StatPrefix
    while (i < evs.length) {
      loop.onEvent(evs(i)).foreach(dig.add)
      i += 1
    }
    val secs = (System.nanoTime() - start) / 1e9
    (secs, loop, loop.counters(dig))
  }

  /** An untimed pass that serializes the engine at evenly spaced checkpoints
    * (the last one at the end of the stream), as a streaming operator stores
    * it after each micro-batch. Reports the mean size and the mean
    * serialize + deserialize time per checkpoint.
    */
  def statePass(w: InProcessSpec, p: Prepared): StateSample = {
    val eng = newEngine(w, p)
    val dig = new MatchDigest
    val n = p.timed
    var bytes = 0L
    var serdeNs = 0L
    var c = 1
    var i = 0
    while (i < n) {
      eng.onEvent(p.events(StatPrefix + i)).foreach(dig.add)
      i += 1
      if (i == (c.toLong * n / StateCheckpoints).toInt) {
        val t0 = System.nanoTime()
        val b = Jvm.serialize(eng)
        Jvm.deserialize(b)
        serdeNs += System.nanoTime() - t0
        bytes += b.length
        c += 1
      }
    }
    new StateSample(counters(eng, dig), bytes.toDouble / StateCheckpoints,
      serdeNs / 1e6 / StateCheckpoints)
  }

  /** Match digest of a static plan on the other engine kind. */
  def reference(w: InProcessSpec, p: Prepared): MatchDigest = {
    val eng = Cep.makeEngine(w.pattern, CepConfig(w.refAlgo, DecisionKind.Static), Some(p.warmStats))
    val dig = new MatchDigest
    var i = StatPrefix
    while (i < p.events.length) { eng.onEvent(p.events(i)).foreach(dig.add); i += 1 }
    dig
  }
}
