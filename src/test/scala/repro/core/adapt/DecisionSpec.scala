package repro.core.adapt

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Pattern, PredOp, Predicate}
import repro.core.algo.{GreedyOrderPlanner, InvariantCond}
import repro.core.stats.{Stats, TestStats}

/** Simple concrete condition for decision-level tests: rate(i) < rate(j). */
private final case class RateCond(i: Int, j: Int, creationSlack: Double) extends InvariantCond {
  def lhs(s: Stats): Double = s.rate(i)
  def rhs(s: Stats): Double = s.rate(j)
}

class DecisionSpec extends AnyFunSuite {

  private val pattern = Pattern.seq(3, 100)
  private def stats(r0: Double, r1: Double, r2: Double): Stats = TestStats.of(pattern, r0, r1, r2)

  test("static decision never fires") {
    val d = new StaticDecision
    assert(!d.shouldReoptimize(stats(0.9, 0.05, 0.05)))
  }

  test("unconditional decision always fires") {
    val d = new UnconditionalDecision
    assert(d.shouldReoptimize(stats(0.1, 0.1, 0.1)))
    assert(d.shouldReoptimize(stats(0.9, 0.05, 0.05)))
  }

  test("an un-armed threshold decision compares against the default Stat") {
    val d = new ThresholdDecision(pattern, 0.1)
    assert(!d.shouldReoptimize(Stats.default(pattern)))
    assert(!d.shouldReoptimize(stats(0.4, 0.3, 0.3)))  // every |Δ| < t from 1/3
    assert(d.shouldReoptimize(stats(0.5, 0.3, 0.2)))   // 0.5 − 1/3 ≥ t
    // The default of a pattern with predicates holds 0.5 per predicate pair.
    val withPred = Pattern.seq(3, 100, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val p = new ThresholdDecision(withPred, 0.1)
    assert(!p.shouldReoptimize(TestStats.of(withPred, 1.0 / 3, 1.0 / 3, 1.0 / 3, 0.45)))
    assert(p.shouldReoptimize(TestStats.of(withPred, 1.0 / 3, 1.0 / 3, 1.0 / 3, 0.65)))
  }

  test("threshold decision fires on deviation ≥ t in any monitored value") {
    val d = new ThresholdDecision(pattern, 0.1)
    d.rearm(stats(0.5, 0.3, 0.2), Vector.empty)
    assert(!d.shouldReoptimize(stats(0.55, 0.3, 0.15))) // below t
    assert(d.shouldReoptimize(stats(0.65, 0.3, 0.05)))  // 0.15 ≥ t
  }

  test("threshold: a single t cannot separate big-rate noise from small-rate swaps (paper §1)") {
    // Example 1 regime: rates 100,15,10 (normalized /125) with noise ±8 on A.
    val base = stats(100.0 / 125, 15.0 / 125, 10.0 / 125)
    // Any t small enough to catch the B/C swap (|Δ| ≈ 5/125 = 0.04)...
    val smallT = new ThresholdDecision(pattern, 0.04)
    smallT.rearm(base, Vector.empty)
    //  ... also fires on harmless noise of the big rate A (Δ = 8/125 = 0.064):
    assert(smallT.shouldReoptimize(stats(108.0 / 125, 15.0 / 125, 10.0 / 125)))
    // while a t big enough to ignore that noise (t=0.07) misses the swap:
    val bigT = new ThresholdDecision(pattern, 0.07)
    bigT.rearm(base, Vector.empty)
    assert(!bigT.shouldReoptimize(stats(100.0 / 125, 10.0 / 125, 16.0 / 125)))
  }

  test("threshold rearm resets the baseline") {
    val d = new ThresholdDecision(pattern, 0.1)
    d.rearm(stats(0.5, 0.3, 0.2), Vector.empty)
    assert(d.shouldReoptimize(stats(0.8, 0.1, 0.1)))
    d.rearm(stats(0.8, 0.1, 0.1), Vector.empty)
    assert(!d.shouldReoptimize(stats(0.8, 0.1, 0.1)))
  }

  test("invariant decision with no invariants never fires") {
    val d = new InvariantDecision(0.0, 1)
    assert(!d.shouldReoptimize(stats(0.1, 0.2, 0.3)))
  }

  test("invariant decision fires iff a monitored condition flipped") {
    val d = new InvariantDecision(0.0, 1)
    d.rearm(stats(0.1, 0.2, 0.3),
      Vector(Vector(RateCond(0, 1, 0.1)), Vector(RateCond(1, 2, 0.1))))
    assert(!d.shouldReoptimize(stats(0.1, 0.2, 0.3)))
    assert(d.shouldReoptimize(stats(0.25, 0.2, 0.3))) // rate0 ≥ rate1
    assert(d.shouldReoptimize(stats(0.1, 0.35, 0.3))) // rate1 ≥ rate2
  }

  test("K selection keeps only the K tightest conditions per block") {
    val d = new InvariantDecision(0.0, 2)
    val block = Vector[InvariantCond](
      RateCond(0, 1, 0.01), RateCond(0, 2, 0.5), RateCond(1, 2, 0.9))
    d.rearm(stats(0.1, 0.2, 0.3), Vector(block))
    assert(d.currentInvariants == block.take(2))
  }

  test("K=1 equals the basic method: only the tightest condition is verified") {
    val d = new InvariantDecision(0.0, 1)
    d.rearm(stats(0.1, 0.2, 0.9),
      Vector(Vector(RateCond(0, 1, 0.1), RateCond(0, 2, 0.8))))
    // Violate only the second (unmonitored) condition: rate0 ≥ rate2.
    assert(!d.shouldReoptimize(stats(0.95, 0.96, 0.9)))
    // Violate the monitored one.
    assert(d.shouldReoptimize(stats(0.3, 0.2, 0.9)))
  }

  test("distance d requires the flip to exceed the relative margin (paper §3.4)") {
    val d = new InvariantDecision(0.2, 1)
    d.rearm(stats(0.1, 0.2, 0.3), Vector(Vector(RateCond(0, 1, 0.1))))
    assert(!d.shouldReoptimize(stats(0.21, 0.2, 0.3))) // flipped but < 20% margin
    assert(d.shouldReoptimize(stats(0.25, 0.2, 0.3)))  // 0.25 ≥ 1.2·0.2
  }

  test("d=0 reduces to the basic method (boundary fires)") {
    val d = new InvariantDecision(0.0, 1)
    d.rearm(stats(0.1, 0.2, 0.3), Vector(Vector(RateCond(0, 1, 0.1))))
    assert(d.shouldReoptimize(stats(0.2, 0.2, 0.3))) // equality counts as violated
  }

  test("rearm replaces the invariant list") {
    val d = new InvariantDecision(0.0, 1)
    d.rearm(stats(0.1, 0.2, 0.3), Vector(Vector(RateCond(0, 1, 0.1))))
    assert(d.shouldReoptimize(stats(0.3, 0.2, 0.3)))
    d.rearm(stats(0.3, 0.2, 0.3), Vector(Vector(RateCond(1, 0, 0.1))))
    assert(!d.shouldReoptimize(stats(0.3, 0.2, 0.3)))
  }

  test("invariant verification cost is O(#invariants) checks") {
    val d = new InvariantDecision(0.0, 1)
    d.rearm(stats(0.1, 0.2, 0.3),
      Vector(Vector(RateCond(0, 1, 0.1)), Vector(RateCond(1, 2, 0.1))))
    val before = d.checksPerformed
    d.shouldReoptimize(stats(0.1, 0.2, 0.3))
    assert(d.checksPerformed == before + 2)
  }

  test("invariant decision integrates with a real planner's DCS output") {
    val planner = new GreedyOrderPlanner(pattern)
    val s0 = stats(0.8, 0.12, 0.08) // plan: 2,1,0
    val r = planner.generate(s0)
    val d = new InvariantDecision(0.0, 1)
    d.rearm(s0, r.dcs)
    assert(!d.shouldReoptimize(s0))
    // Swap rates of positions 1 and 2 → plan must change → invariant fires.
    assert(d.shouldReoptimize(stats(0.8, 0.08, 0.12)))
  }
}
