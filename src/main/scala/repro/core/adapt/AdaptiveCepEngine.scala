package repro.core.adapt

import repro.core.{Event, Pattern}
import repro.core.algo.{Planner, PlanResult}
import repro.core.engine.Engine
import repro.core.plan.EvalPlan
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
  var nanosInDecision: Long = 0L // wall time inside D
  var nanosInPlanner: Long = 0L  // wall time inside A + deployment bookkeeping
  var pmRetired: Long = 0L       // partial matches created by retired engines

  def fruitlessRuns: Long = plannerRuns - replacements // A invocations that produced no better plan
}

/** The paper's detection-adaptation loop (Algorithm 1) around a pattern
  * evaluation engine, with live plan switchover per §2.2.
  *
  * Switchover: after a replacement at time `t0` the previous engine keeps
  * running for one window; only its matches containing at least one event
  * accepted before `t0` are reported, while the fresh engine (starting from
  * empty buffers) reports the all-new matches. We generalize to a chain of
  * engines with start times `s₁ < s₂ < …` (a replacement decided at ts `t`
  * starts its engine at `t + 1`). Each engine emits only the matches of its
  * ownership interval `[s_k, s_{k+1})` (see [[Engine]]), and is dropped once
  * `s_{k+1} ≤ now − W`. Timestamps must be non-decreasing: equal timestamps
  * are allowed, and an event earlier than the last one is rejected. The
  * reported match set is therefore *exactly* the same as an unswitched run
  * (tested), while the overlap's double processing is physically incurred —
  * the deployment cost the paper measures.
  *
  * `D` is evaluated every `statPeriod` events; time spent in `D` and `A` is
  * accounted separately (the paper's "computational overhead"). The
  * monitor's window factor and seed are `StatisticsMonitor`'s constants.
  */
final class AdaptiveCepEngine(
    val pattern: Pattern,
    val planner: Planner,
    val decision: Decision,
    val statPeriod: Int,
    initialStats: Option[repro.core.stats.Stats],
) extends Serializable {

  val monitor = new StatisticsMonitor(pattern)
  val counters = new AdaptiveCounters

  /** Active engines, oldest first; each owns the matches from its start up to the next one's. */
  private var engines: Array[Engine] = Array.empty
  private var _currentPlan: EvalPlan = _
  private var sinceDecision = 0
  private var lastTs = Long.MinValue

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
    val engine = new Engine(pattern, plan)
    engine.from = startTs
    engines.lastOption.foreach(_.until = startTs)
    engines = engines :+ engine
  }

  // The matches of the event being processed; reused across events.
  private val out = new mutable.ArrayBuffer[Array[Event]]

  /** Process one event; returns the full matches it completed (events by
    * pattern position). Throws `IllegalArgumentException` if `e.ts` is below
    * the last timestamp seen.
    */
  def onEvent(e: Event): Seq[Array[Event]] = {
    if (e.ts < lastTs)
      throw new IllegalArgumentException(s"late event ${e.id}: ts ${e.ts} is below the last ts $lastTs")
    lastTs = e.ts
    val pos = pattern.typeToPos(e.etype)
    monitor.observe(e, pos)
    if (pos < 0) return Nil
    counters.events += 1

    // Retire engines whose ownership interval ended at least a window ago.
    while (engines(0).until <= e.ts - pattern.window) {
      counters.pmRetired += engines(0).partialMatchesCreated
      engines = engines.tail
    }

    out.clear()
    val live = engines
    var k = 0
    while (k < live.length) { live(k).onEvent(e, pos, out); k += 1 }
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
      }
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
    counters.pmRetired + engines.map(_.partialMatchesCreated).sum
}
