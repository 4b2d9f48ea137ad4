package repro.perfbench

import repro.core.{Event, Pattern}
import repro.core.algo.PlanResult
import repro.core.engine.{Engine, OrderEngine, TreeEngine}
import repro.core.plan.{EvalPlan, OrderPlan, TreePlan}
import repro.core.stats.{StatisticsMonitor, Stats}
import repro.spark.{Cep, CepConfig}
import scala.collection.mutable

/** Spans aggregated per layer: total nanoseconds and number of calls. Kept
  * in memory and read out once the run ends.
  */
final class Spans {
  val nanos = new Array[Long](Spans.names.length)
  val calls = new Array[Long](Spans.names.length)

  @inline def add(layer: Int, ns: Long): Unit = { nanos(layer) += ns; calls(layer) += 1 }

  def merge(o: Spans): Unit = {
    var i = 0
    while (i < nanos.length) { nanos(i) += o.nanos(i); calls(i) += o.calls(i); i += 1 }
  }
}

object Spans {
  final val Observe = 0     // StatisticsMonitor.observe
  final val Snapshot = 1    // StatisticsMonitor.snapshot
  final val Decide = 2      // Decision.shouldReoptimize
  final val Rearm = 3       // Decision.rearm
  final val Generate = 4    // Planner.generate
  final val Compare = 5     // the two Planner.cost calls of the "is it better" test
  final val Deploy = 6      // new OrderEngine / new TreeEngine
  final val OrderEng = 7    // OrderEngine.onEvent
  final val TreeEng = 8     // TreeEngine.onEvent
  final val Overlap = 9     // Engine.onEvent on engines that are being retired
  final val Output = 10     // ownership filter and result collection
  val names: Vector[String] = Vector("observe", "snapshot", "decide", "rearm", "generate",
    "compare", "deploy", "engine.order", "engine.tree", "overlap", "output")
}

/** Algorithm 1's detection–adaptation loop rebuilt from the public calls of
  * each layer, with a span around every call into a layer.
  *
  * The loop body, the retirement rule and the ownership rule are those of
  * `AdaptiveCepEngine.onEvent` / `maybeReoptimize`, so for the same stream,
  * configuration and initial statistics it must produce the same matches and
  * the same counters; the benchmark checks that on every traced run.
  */
final class TracedLoop(pattern: Pattern, cfg: CepConfig, initialStats: Option[Stats]) {
  val spans = new Spans
  val monitor =
    new StatisticsMonitor(pattern, pattern.window.max(1L) * cfg.statWindowFactor, seed = cfg.seed)
  private val planner = Cep.makePlanner(pattern, cfg.algo)
  private val decision = Cep.makeDecision(pattern, cfg.decision)

  private final class Live(val engine: Engine, val startTs: Long, val layer: Int)
  private var engines: Vector[Live] = Vector.empty
  private var current: EvalPlan = _
  private var sinceDecision = 0
  private val engineOut = new mutable.ArrayBuffer[Array[Event]]

  var events = 0L
  var matches = 0L
  var plannerRuns = 0L
  var replacements = 0L
  var fruitlessRuns = 0L
  var decideEvals = 0L
  var liveEnginesPeak = 1
  private var pmRetired = 0L

  locally {
    val s0 = initialStats.getOrElse(Stats.default(pattern))
    val pr = planner.generate(s0)
    current = pr.plan
    decision.rearm(s0, pr.dcs)
    engines = Vector(deploy(pr.plan, Long.MinValue))
  }

  private def deploy(plan: EvalPlan, startTs: Long): Live = plan match {
    case op: OrderPlan => new Live(new OrderEngine(pattern, op), startTs, Spans.OrderEng)
    case tp: TreePlan  => new Live(new TreeEngine(pattern, tp), startTs, Spans.TreeEng)
  }

  def onEvent(e: Event): Seq[Array[Event]] = {
    var t0 = System.nanoTime()
    monitor.observe(e)
    var t1 = System.nanoTime()
    spans.add(Spans.Observe, t1 - t0)
    if (!pattern.typeToPos.contains(e.etype)) return Nil
    events += 1

    while (engines.length > 1 && engines(1).startTs <= e.ts - pattern.window) {
      pmRetired += engines.head.engine.partialMatchesCreated
      engines = engines.tail
    }

    val out = mutable.ArrayBuffer.empty[Array[Event]]
    var k = 0
    while (k < engines.length) {
      val live = engines(k)
      engineOut.clear()
      t0 = System.nanoTime()
      live.engine.onEvent(e, engineOut)
      t1 = System.nanoTime()
      spans.add(live.layer, t1 - t0)
      if (k + 1 < engines.length) spans.add(Spans.Overlap, t1 - t0)
      val bound = if (k + 1 < engines.length) engines(k + 1).startTs else Long.MaxValue
      var m = 0
      while (m < engineOut.length) {
        val evs = engineOut(m)
        var minTs = Long.MaxValue
        var q = 0
        while (q < evs.length) { if (evs(q).ts < minTs) minTs = evs(q).ts; q += 1 }
        if (minTs < bound) out += evs
        m += 1
      }
      spans.add(Spans.Output, System.nanoTime() - t1)
      k += 1
    }
    matches += out.length

    sinceDecision += 1
    if (sinceDecision >= cfg.statPeriod) {
      sinceDecision = 0
      maybeReoptimize(e.ts)
    }
    out.toSeq
  }

  private def maybeReoptimize(now: Long): Unit = {
    var t0 = System.nanoTime()
    val stats = monitor.snapshot(now)
    var t1 = System.nanoTime()
    spans.add(Spans.Snapshot, t1 - t0)
    decideEvals += 1
    val fire = decision.shouldReoptimize(stats)
    t0 = System.nanoTime()
    spans.add(Spans.Decide, t0 - t1)
    if (fire) {
      val pr: PlanResult = planner.generate(stats)
      t1 = System.nanoTime()
      spans.add(Spans.Generate, t1 - t0)
      plannerRuns += 1
      val better = pr.plan != current && {
        val c = planner.cost(pr.plan, stats) < planner.cost(current, stats)
        t0 = System.nanoTime()
        spans.add(Spans.Compare, t0 - t1)
        t1 = t0
        c
      }
      if (better) {
        replacements += 1
        current = pr.plan
        engines = engines :+ deploy(pr.plan, now + 1)
        t0 = System.nanoTime()
        spans.add(Spans.Deploy, t0 - t1)
        t1 = t0
        liveEnginesPeak = math.max(liveEnginesPeak, engines.length)
      } else fruitlessRuns += 1
      decision.rearm(stats, pr.dcs)
      spans.add(Spans.Rearm, System.nanoTime() - t1)
    }
  }

  def partialMatchesCreated: Long = pmRetired + engines.map(_.engine.partialMatchesCreated).sum

  def decideChecks: Long = decision.checksPerformed

  def counters(digest: MatchDigest): Counters = Counters(events, matches, partialMatchesCreated,
    plannerRuns, replacements, fruitlessRuns, decideEvals, decideChecks, digest.toString)
}
