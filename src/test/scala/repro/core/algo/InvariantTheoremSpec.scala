package repro.core.algo

import org.scalatest.funsuite.AnyFunSuite
import repro.core.adapt.InvariantDecision
import repro.core.stats.Stats
import repro.core.stats.TestStats.{of, pairwise, randomStats}

/** Property tests for the paper's correctness guarantees (§3.3):
  *
  *  - Theorem 1: if the invariant-based `D` returns true, re-running `A`
  *    yields a *different* plan (no false positives).
  *  - Corollary 1: that plan is *better* under the current statistics.
  *  - Theorem 2: with all deciding conditions kept (K = ∞), `D` returns true
  *    *iff* re-running `A` yields a different plan.
  *
  * The greedy planner's deciding conditions are exact re-evaluations of the
  * comparisons `A` performs, so both theorems are machine-checked exactly.
  * The ZStream planner's runtime invariants freeze subtree costs (paper
  * §4.2), an approximation; Theorem 1 is checked over seeded perturbations.
  */
class InvariantTheoremSpec extends AnyFunSuite {

  /** Multiplicative perturbation of every monitored value. No upper clamp:
    * saturating at 1.0 would create exact cost ties, and ties are the only
    * case where the theorems' strict inequalities degenerate.
    */
  private def perturb(s: Stats, rnd: scala.util.Random, sigma: Double): Stats = {
    def jiggle(x: Double): Double =
      math.max(1e-3, x * math.exp(rnd.nextGaussian() * sigma))
    of(s.pattern, s.monitoredValues.toSeq.map(jiggle): _*)
  }

  for (n <- Seq(3, 5, 7); sigma <- Seq(0.05, 0.3)) {
    test(s"greedy Theorem 1: D=true ⇒ new plan differs (n=$n σ=$sigma, 200 trials)") {
      val rnd = new scala.util.Random(n * 1000 + (sigma * 100).toInt)
      val planner = new GreedyOrderPlanner(pairwise(n))
      var fired = 0
      (1 to 200).foreach { _ =>
        val s0 = randomStats(planner.pattern, rnd)
        val r0 = planner.generate(s0)
        val dec = new InvariantDecision(d = 0.0, k = 1)
        dec.rearm(s0, r0.dcs)
        val s1 = perturb(s0, rnd, sigma)
        if (dec.shouldReoptimize(s1)) {
          fired += 1
          val r1 = planner.generate(s1)
          assert(r1.plan != r0.plan, s"false positive: stats $s1")
        }
      }
      assert(fired > 0, "perturbations should trigger at least once")
    }
  }

  for (n <- Seq(3, 5, 7)) {
    test(s"greedy Corollary 1 (heuristic A): replan usually better, never deployed when worse (n=$n)") {
      // Corollary 1 assumes an *optimal* A; the paper concedes this "rarely
      // holds in practice" (§2.1) and the greedy algorithm is a heuristic.
      // So: the regenerated plan must differ (Theorem 1, exact), must be
      // strictly better in the large majority of firings, and Algorithm 1's
      // deployment guard (cost comparison) rejects the rest — which the
      // AdaptiveCepEngine counts as fruitless runs.
      val rnd = new scala.util.Random(n * 7777)
      val planner = new GreedyOrderPlanner(pairwise(n))
      var fired = 0
      var better = 0
      (1 to 200).foreach { _ =>
        val s0 = randomStats(planner.pattern, rnd)
        val r0 = planner.generate(s0)
        val dec = new InvariantDecision(d = 0.0, k = 1)
        dec.rearm(s0, r0.dcs)
        val s1 = perturb(s0, rnd, 0.3)
        if (dec.shouldReoptimize(s1)) {
          fired += 1
          val r1 = planner.generate(s1)
          assert(r1.plan != r0.plan)
          if (planner.cost(r1.plan, s1) < planner.cost(r0.plan, s1)) better += 1
        }
      }
      assert(fired > 20)
      assert(better.toDouble / fired > 0.8,
        s"replans should be better in the large majority of cases: $better/$fired")
    }
  }

  for (n <- Seq(3, 4, 5, 6)) {
    test(s"greedy Theorem 2: with full DCSs, D=true ⇔ plan changes (n=$n, 300 trials)") {
      val rnd = new scala.util.Random(n * 555)
      val planner = new GreedyOrderPlanner(pairwise(n))
      var changed = 0
      var unchanged = 0
      (1 to 300).foreach { _ =>
        val s0 = randomStats(planner.pattern, rnd)
        val r0 = planner.generate(s0)
        val dec = new InvariantDecision(d = 0.0, k = Int.MaxValue)
        dec.rearm(s0, r0.dcs)
        val s1 = perturb(s0, rnd, 0.2)
        val fire = dec.shouldReoptimize(s1)
        val r1 = planner.generate(s1)
        if (r1.plan == r0.plan) { unchanged += 1; assert(!fire, "false positive") }
        else { changed += 1; assert(fire, s"false negative: plan changed ${r0.plan} → ${r1.plan} undetected") }
      }
      assert(changed > 0 && unchanged > 0, s"need both outcomes (changed=$changed)")
    }
  }

  test("greedy K=1 admits false negatives that K=all catches (paper §3.3)") {
    val n = 5
    val rnd = new scala.util.Random(2024)
    val planner = new GreedyOrderPlanner(pairwise(n))
    var k1Missed = 0
    var trials = 0
    (1 to 400).foreach { _ =>
      val s0 = randomStats(planner.pattern, rnd)
      val r0 = planner.generate(s0)
      val d1 = new InvariantDecision(0.0, 1); d1.rearm(s0, r0.dcs)
      val dAll = new InvariantDecision(0.0, Int.MaxValue); dAll.rearm(s0, r0.dcs)
      val s1 = perturb(s0, rnd, 0.25)
      val planChanged = planner.generate(s1).plan != r0.plan
      if (planChanged) {
        trials += 1
        assert(dAll.shouldReoptimize(s1), "K=all must catch every change")
        if (!d1.shouldReoptimize(s1)) k1Missed += 1
      }
    }
    assert(trials > 50)
    assert(k1Missed > 0, "K=1 should miss at least some changes over 400 trials")
  }

  test("distance d suppresses marginal violations (paper §3.4)") {
    val n = 4
    val rnd = new scala.util.Random(31337)
    val planner = new GreedyOrderPlanner(pairwise(n))
    var basicFired = 0
    var distFired = 0
    (1 to 300).foreach { _ =>
      val s0 = randomStats(planner.pattern, rnd)
      val r0 = planner.generate(s0)
      val basic = new InvariantDecision(0.0, 1); basic.rearm(s0, r0.dcs)
      val dist = new InvariantDecision(0.5, 1); dist.rearm(s0, r0.dcs)
      val s1 = perturb(s0, rnd, 0.1) // small oscillations
      if (basic.shouldReoptimize(s1)) basicFired += 1
      if (dist.shouldReoptimize(s1)) distFired += 1
    }
    assert(basicFired > distFired, s"basic=$basicFired dist=$distFired")
    assert(distFired < basicFired / 2)
  }

  for (n <- Seq(3, 4, 5, 6)) {
    test(s"zstream Theorem 1 (live costs over frozen shapes): D=true ⇒ plan changes (n=$n, 200 trials)") {
      val rnd = new scala.util.Random(n * 999)
      val planner = new ZStreamPlanner(pairwise(n))
      var fired = 0
      (1 to 200).foreach { _ =>
        val s0 = randomStats(planner.pattern, rnd)
        val r0 = planner.generate(s0)
        val dec = new InvariantDecision(d = 0.0, k = Int.MaxValue)
        dec.rearm(s0, r0.dcs)
        val s1 = perturb(s0, rnd, 0.3)
        if (dec.shouldReoptimize(s1)) {
          fired += 1
          val r1 = planner.generate(s1)
          assert(r1.plan != r0.plan,
            s"false positive on zstream invariants: $s0 → $s1")
        }
      }
      assert(fired > 0)
    }
  }

  test("zstream Corollary 1: every detected violation leads to a strictly better tree") {
    // The DP *is* optimal over tree-based plans, so Corollary 1 holds exactly.
    val rnd = new scala.util.Random(4242)
    val planner = new ZStreamPlanner(pairwise(5))
    var fired = 0
    (1 to 200).foreach { _ =>
      val s0 = randomStats(planner.pattern, rnd)
      val r0 = planner.generate(s0)
      val dec = new InvariantDecision(0.0, Int.MaxValue)
      dec.rearm(s0, r0.dcs)
      val s1 = perturb(s0, rnd, 0.3)
      if (dec.shouldReoptimize(s1)) {
        fired += 1
        val r1 = planner.generate(s1)
        assert(planner.cost(r1.plan, s1) < planner.cost(r0.plan, s1))
      }
    }
    assert(fired > 20)
  }
}
