package repro.core.adapt

import repro.core.Pattern
import repro.core.algo.InvariantCond
import repro.core.stats.Stats

/** A reoptimizing decision function `D : STAT → {true,false}` (paper §2.3).
  *
  * `rearm` is called once after every planner invocation (whether or not the
  * plan was replaced) with the statistics used by the planner and the
  * deciding condition sets of the produced plan, letting stateful decision
  * functions reset their baseline / invariant list. The DCSs are passed by
  * name: only a decision function that reads them has them built.
  */
trait Decision extends Serializable {
  def shouldReoptimize(stats: Stats): Boolean
  def rearm(stats: Stats, dcs: => Vector[Vector[InvariantCond]]): Unit = ()

  /** Number of elementary condition checks performed so far (for overhead
    * accounting and complexity tests).
    */
  def checksPerformed: Long = 0L
}

/** No adaptation — the "static plan" baseline of the paper's experiments. */
final class StaticDecision extends Decision {
  def shouldReoptimize(stats: Stats): Boolean = false
}

/** Unconditional reoptimization on every evaluation of `D` — the strategy of
  * the tree-based lazy NFA [33] (paper §2.3: "a trivial decision function,
  * unconditionally returning true").
  */
final class UnconditionalDecision extends Decision {
  def shouldReoptimize(stats: Stats): Boolean = true
}

/** Constant-threshold method of ZStream [38]: `D` returns true iff any
  * monitored value deviates from its value at the last rearm by at least `t`
  * (absolute deviation, as in the paper's running example; every monitored
  * value here lives in [0,1]). Before the first rearm the baseline is the
  * default `Stat` of the pattern.
  */
final class ThresholdDecision(val pattern: Pattern, val t: Double) extends Decision {
  private var baseline: Array[Double] = Stats.default(pattern).monitoredValues
  private var checks = 0L

  def shouldReoptimize(stats: Stats): Boolean = {
    val curr = stats.monitoredValues
    var i = 0
    while (i < curr.length) {
      checks += 1
      if (math.abs(curr(i) - baseline(i)) >= t) return true
      i += 1
    }
    false
  }

  override def rearm(stats: Stats, dcs: => Vector[Vector[InvariantCond]]): Unit =
    baseline = stats.monitoredValues

  override def checksPerformed: Long = checks
}

/** The paper's invariant-based method (§3). Keeps, per building block, the
  * `K` tightest deciding conditions as invariants (K-invariant method, §3.3;
  * `K = 1` is the basic method, `K = Int.MaxValue` the full-DCS variant of
  * Theorem 2) and fires iff some invariant is violated with relative margin
  * `d` (distance-based invariants, §3.4). Invariants are verified in building
  * block order, i.e. plan order / leaves-to-root (§3.2).
  */
final class InvariantDecision(val d: Double, val k: Int) extends Decision {
  require(d >= 0.0 && k >= 1)

  private var invariants: Vector[InvariantCond] = Vector.empty
  private var checks = 0L

  /** Currently armed invariants (verification order), exposed for tests. */
  def currentInvariants: Vector[InvariantCond] = invariants

  def shouldReoptimize(stats: Stats): Boolean = {
    var i = 0
    while (i < invariants.length) {
      checks += 1
      if (invariants(i).violated(stats, d)) return true
      i += 1
    }
    false
  }

  override def rearm(stats: Stats, dcs: => Vector[Vector[InvariantCond]]): Unit =
    invariants = dcs.flatMap(_.take(k))

  override def checksPerformed: Long = checks
}
