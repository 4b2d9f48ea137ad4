package repro.harness

import repro.core.{Event, Pattern, PredOp, Predicate}
import repro.data.{StockGen, TrafficGen}
import repro.spark.{AlgoKind, Cep, CepConfig, DecisionKind}

/** Shared experiment harness reproducing the paper's evaluation (§5): each
  * of Figures 5–9 is regenerated as a printed table by one bench suite
  * built on this harness.
  *
  * A run feeds a deterministic synthetic event stream (traffic or stocks
  * regime, see `repro.data`) through the detection-adaptation loop and
  * measures: throughput (events/s), number of plan reoptimizations, and
  * computational overhead (share of wall time in `D` + `A`) — the paper's
  * metrics. A warm-up prefix feeds the statistics monitor only, providing the
  * planner's initial statistics (`in_stat` of Algorithm 1) exactly as a
  * deployed system would have them.
  */
object BenchHarness {

  /** One table row ≙ one (pattern length, method) cell of a figure. */
  final case class Row(
      dataset: String,
      algo: String,
      method: String,
      patternLen: Int,
      events: Long,
      matches: Long,
      throughputEvS: Double,
      gainVsStatic: Double, // relative throughput vs the static plan (Figs 6b-9b)
      reoptimizations: Long, // actual plan replacements (Figs 6c-9c)
      plannerRuns: Long,
      overheadPct: Double, // time in D + A over total (Figs 6d-9d)
  )

  /** Traffic-regime pattern: SEQ of n observation points where both average
    * speed and vehicle count decline along the sequence (the "violation of
    * normal driving behavior" pattern of §5.1).
    */
  def trafficPattern(n: Int, window: Long): Pattern =
    Pattern.seq(n, window,
      (0 until n - 1).flatMap(i => Vector(
        Predicate(i, i + 1, attr = 0, PredOp.Gt),
        Predicate(i, i + 1, attr = 1, PredOp.Gt),
      )).toVector)

  /** Stocks-regime pattern: SEQ of n stock identifiers with ascending price
    * differences (`A.diff < B.diff < …`, §5.1).
    */
  def stockPattern(n: Int, window: Long): Pattern =
    Pattern.seq(n, window,
      (0 until n - 1).map(i => Predicate(i, i + 1, attr = 0, PredOp.Lt)).toVector)

  /** Dataset registry: name → (event generator, pattern factory). */
  final case class DatasetSpec(
      name: String,
      pattern: Int => Pattern,
      gen: (Int, Int, Long) => IndexedSeq[Event], // (nTypes, count, seed)
  )

  val traffic: DatasetSpec = DatasetSpec(
    "traffic",
    pattern = n => trafficPattern(n, 300),
    gen = (n, count, seed) => TrafficGen.events(n, count, epochs = 4, seed = seed),
  )

  val stocks: DatasetSpec = DatasetSpec(
    "stocks",
    pattern = n => stockPattern(n, 150),
    gen = (n, count, seed) =>
      StockGen.events(n, count, stepEvery = 400, stepSigma = 0.10, driftSigma = 0.0, seed = seed),
  )

  /** One-time JVM warm-up so JIT compilation of the hot engine/planner paths
    * does not bias whichever measured run happens to execute first.
    */
  private lazy val jitWarmed: Boolean = {
    for (ds <- Seq(traffic, stocks); algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)) {
      val eng = Cep.makeEngine(ds.pattern(3), CepConfig(algo, DecisionKind.Unconditional))
      ds.gen(3, 12000, 99L).foreach(eng.onEvent)
    }
    true
  }

  // Events of each run that only feed the statistics monitor, before timing;
  // and timed runs per cell, of which the fastest is reported.
  private final val Warmup = 2000
  private final val Reps = 2

  /** Run one (dataset, length, algo, method) cell and return its row, with
    * `gainVsStatic` unset (NaN). The same `seed` produces the same event
    * stream for every method, so comparisons are paired.
    */
  def runOne(
      ds: DatasetSpec,
      len: Int,
      algo: AlgoKind,
      decision: DecisionKind,
      nEvents: Int,
      seed: Long = 7L,
  ): Row = {
    require(jitWarmed)
    val pattern = ds.pattern(len)
    val cfg = CepConfig(algo, decision)
    val all = ds.gen(len, Warmup + nEvents, seed)
    // Warm-up prefix: statistics only — gives A its initial in_stat, untimed.
    // The monitor is built exactly as the timed engines build theirs.
    val warmup = all.take(Warmup)
    val warmMonitor = Cep.makeEngine(pattern, cfg).monitor
    warmup.foreach(warmMonitor.observe)
    val warmStats = warmMonitor.snapshot(warmup.last.ts)

    // Best-of-`Reps` wall time (fresh engine per rep, identical stream):
    // standard microbenchmark hygiene against GC/JIT/scheduler noise.
    var best: Row = null
    var rep = 0
    while (rep < Reps) {
      val timed = Cep.makeEngine(pattern, cfg, Some(warmStats))
      warmup.foreach(timed.monitor.observe)
      System.gc()
      val t0 = System.nanoTime()
      var m = 0L
      var i = Warmup
      while (i < all.length) {
        m += timed.onEvent(all(i)).length
        i += 1
      }
      val elapsed = System.nanoTime() - t0
      val c = timed.counters
      val row = Row(ds.name, timed.planner.name, timed.decision.name, len, c.events, m,
        c.events.toDouble / (elapsed / 1e9), Double.NaN, c.replacements, c.plannerRuns,
        100.0 * (c.nanosInDecision + c.nanosInPlanner) / elapsed)
      if (best == null || row.throughputEvS > best.throughputEvS) best = row
      rep += 1
    }
    best
  }

  /** The method-comparison table of Figs 6–9 for one dataset × algorithm:
    * rows = pattern length × {static, unconditional, threshold(t), invariant(d,K)},
    * each with its throughput gain over the static row of its length.
    */
  def methodComparison(
      ds: DatasetSpec,
      algo: AlgoKind,
      lengths: Seq[Int],
      nEvents: Int,
      tOpt: Double,
      dOpt: Double,
      k: Int,
      seed: Long = 7L,
  ): Seq[Row] = {
    val methods = Seq[DecisionKind](
      DecisionKind.Static,
      DecisionKind.Unconditional,
      DecisionKind.Threshold(tOpt),
      DecisionKind.Invariant(dOpt, k),
    )
    lengths.flatMap { len =>
      val rows = methods.map(runOne(ds, len, algo, _, nEvents, seed))
      val staticThr = rows.head.throughputEvS
      rows.map(r => r.copy(gainVsStatic = r.throughputEvS / staticThr))
    }
  }

  /** The distance sweep of Fig. 5 for one dataset × algorithm: rows =
    * pattern length × d.
    */
  def dSweep(
      ds: DatasetSpec,
      algo: AlgoKind,
      lengths: Seq[Int],
      ds_ : Seq[Double],
      nEvents: Int,
      k: Int,
      seed: Long = 7L,
  ): Seq[Row] =
    for (len <- lengths; d <- ds_)
      yield runOne(ds, len, algo, DecisionKind.Invariant(d, k), nEvents, seed)
        .copy(method = f"invariant(d=$d%.2f)")

  def printTable(title: String, rows: Seq[Row]): Unit = {
    println(s"\n=== $title ===")
    println(f"${"dataset"}%-8s ${"algo"}%-8s ${"method"}%-26s ${"len"}%3s " +
      f"${"events"}%8s ${"matches"}%9s ${"ev/s"}%11s ${"gain"}%6s ${"reopts"}%6s ${"Aruns"}%6s ${"ovh%"}%6s")
    rows.foreach { r =>
      val gain = if (r.gainVsStatic.isNaN) "  -" else f"${r.gainVsStatic}%5.2fx"
      println(f"${r.dataset}%-8s ${r.algo}%-8s ${r.method}%-26s ${r.patternLen}%3d " +
        f"${r.events}%8d ${r.matches}%9d ${r.throughputEvS}%11.0f $gain%6s ${r.reoptimizations}%6d " +
        f"${r.plannerRuns}%6d ${r.overheadPct}%6.2f")
    }
  }
}
