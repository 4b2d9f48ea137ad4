package repro.core.adapt

import repro.core.{Event, Pattern}
import repro.core.algo.{Planner, PlanResult}
import repro.core.engine.{Engine, OrderEngine, TreeEngine}
import repro.core.plan.{EvalPlan, OrderPlan, TreePlan}
import repro.core.stats.StatisticsMonitor
import scala.collection.mutable

/** Counters describing one run of the detection-adaptation loop — the raw
  * material of the paper's Figures 5–9.
  */
final class AdaptiveCounters extends Serializable {
  var events: Long = 0L          // pattern-relevant events processed
  var matches: Long = 0L         // full matches emitted
  var decisionEvals: Long = 0L   // evaluations of D
  var plannerRuns: Long = 0L     // invocations of A (D returned true)
  var replacements: Long = 0L    // actual plan deployments (Figs 6c–9c)
  var fruitlessRuns: Long = 0L   // A invocations that produced no better plan
  var nanosInDecision: Long = 0L // wall time inside D
  var nanosInPlanner: Long = 0L  // wall time inside A + deployment bookkeeping
  var pmRetired: Long = 0L       // partial matches created by retired engines
}

/** The paper's detection-adaptation loop (Algorithm 1) around a pattern
  * evaluation engine, with live plan switchover per §2.2.
  *
  * Switchover: after a replacement at time `t0` the previous engine keeps
  * running for one window; only its matches containing at least one event
  * accepted before `t0` are reported, while the fresh engine (starting from
  * empty buffers) reports the all-new matches. We generalize to a chain of
  * engines with start times `s₁ < s₂ < …` (a replacement decided at ts `t`
  * starts its engine at `t + 1`): engine k owns the matches whose earliest
  * event ts lies in the half-open interval `[s_k, s_{k+1})`, with
  * `s_{k+1} = +∞` for the newest engine, and is dropped once
  * `s_{k+1} ≤ now − W`. Timestamps must be non-decreasing; equal timestamps
  * are allowed. An event that ties the replacement's ts `t` reaches the new
  * engine too, but every match containing it starts before `s_{k+1}`, so only
  * the old engine, which saw all of the match's events, reports it. The
  * reported match set is therefore *exactly* the same as an unswitched run
  * (tested), while the overlap's double processing is physically incurred —
  * the deployment cost the paper measures.
  *
  * `D` is evaluated every `statPeriod` events; time spent in `D` and `A` is
  * accounted separately (the paper's "computational overhead").
  */
final class AdaptiveCepEngine(
    val pattern: Pattern,
    val planner: Planner,
    val decision: Decision,
    val statPeriod: Int,
    statWindowFactor: Int,
    initialStats: Option[repro.core.stats.Stats],
    seed: Long,
) extends Serializable {

  val monitor = new StatisticsMonitor(pattern, pattern.window.max(1L) * statWindowFactor, seed = seed)
  val counters = new AdaptiveCounters

  /** Active engines, oldest first, each tagged with its start timestamp. */
  private final class Live(val engine: Engine, val startTs: Long) extends Serializable
  private var engines: Vector[Live] = Vector.empty
  private var _currentPlan: EvalPlan = _
  private var sinceDecision = 0

  locally {
    val s0 = initialStats.getOrElse(repro.core.stats.Stats.default(pattern))
    val pr = planner.generate(s0)
    deploy(pr.plan, Long.MinValue)
    decision.rearm(s0, pr.dcs)
  }

  def currentPlan: EvalPlan = _currentPlan

  /** Make `plan` current and start its engine, owning matches from `startTs`. */
  private def deploy(plan: EvalPlan, startTs: Long): Unit = {
    _currentPlan = plan
    val engine = plan match {
      case op: OrderPlan => new OrderEngine(pattern, op)
      case tp: TreePlan  => new TreeEngine(pattern, tp)
    }
    engines = engines :+ new Live(engine, startTs)
  }

  // The matches of the event being processed; reused across events.
  private val out = new mutable.ArrayBuffer[Array[Event]]

  /** Process one event; returns the full matches it completed (events by
    * pattern position).
    */
  def onEvent(e: Event): Seq[Array[Event]] = {
    monitor.observe(e)
    if (!pattern.typeToPos.contains(e.etype)) return Nil
    counters.events += 1

    // Retire engines whose responsibility interval has expired.
    while (engines.length > 1 && engines(1).startTs <= e.ts - pattern.window) {
      counters.pmRetired += engines.head.engine.partialMatchesCreated
      engines = engines.tail
    }

    out.clear()
    var k = 0
    while (k < engines.length) {
      val from = out.length
      engines(k).engine.onEvent(e, out)
      // Engine k owns matches whose earliest ts lies in [its start, the next
      // engine's start). Its unowned matches are dropped from `out` in place,
      // keeping the order.
      val start = engines(k).startTs
      val end = if (k + 1 < engines.length) engines(k + 1).startTs else Long.MaxValue
      var kept = from
      var m = from
      while (m < out.length) {
        val evs = out(m)
        var minTs = Long.MaxValue
        var q = 0
        while (q < evs.length) { if (evs(q).ts < minTs) minTs = evs(q).ts; q += 1 }
        if (minTs >= start && minTs < end) { out(kept) = evs; kept += 1 }
        m += 1
      }
      out.dropRightInPlace(out.length - kept)
      k += 1
    }
    counters.matches += out.length

    sinceDecision += 1
    if (sinceDecision >= statPeriod) {
      sinceDecision = 0
      maybeReoptimize(e.ts)
    }
    if (out.isEmpty) Nil else out.toSeq
  }

  /** One iteration of Algorithm 1's adaptation branch. */
  private def maybeReoptimize(now: Long): Unit = {
    val stats = monitor.snapshot(now)
    counters.decisionEvals += 1
    val t0 = System.nanoTime()
    val fire = decision.shouldReoptimize(stats)
    counters.nanosInDecision += System.nanoTime() - t0

    if (fire) {
      val t1 = System.nanoTime()
      val pr: PlanResult = planner.generate(stats)
      counters.plannerRuns += 1
      val better = pr.plan != _currentPlan &&
        planner.cost(pr.plan, stats) < planner.cost(_currentPlan, stats)
      if (better) {
        counters.replacements += 1
        deploy(pr.plan, now + 1)
      } else counters.fruitlessRuns += 1
      // Rearm regardless: baselines/invariants now reflect current stats.
      decision.rearm(stats, pr.dcs)
      counters.nanosInPlanner += System.nanoTime() - t1
    }
  }

  /** Number of concurrently live engines (switchover overlap), for tests. */
  def liveEngines: Int = engines.length

  /** Total partial matches materialized across all engines (incl. retired) —
    * the workload quantity the evaluation plans minimize.
    */
  def partialMatchesCreated: Long =
    counters.pmRetired + engines.map(_.engine.partialMatchesCreated).sum
}
