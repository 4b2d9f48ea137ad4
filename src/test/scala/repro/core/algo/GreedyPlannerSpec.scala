package repro.core.algo

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Pattern, PredOp, Predicate}
import repro.core.plan.{CostModel, OrderPlan}
import repro.core.stats.Stats
import repro.core.stats.TestStats.{of, pairwise, randomStats}

class GreedyPlannerSpec extends AnyFunSuite {

  private def noPredStats(rates: Double*): Stats = of(Pattern.seq(rates.size, 100), rates: _*)

  test("Example 1: rates (A=100, B=15, C=10)/125 yield order C,B,A") {
    val p = Pattern.seq(3, 100)
    val planner = new GreedyOrderPlanner(p)
    val stats = noPredStats(100.0 / 125, 15.0 / 125, 10.0 / 125)
    val r = planner.generate(stats)
    assert(r.plan == OrderPlan(Vector(2, 1, 0))) // C, B, A
  }

  test("Example 1: invariant of block 1 is rate_C < rate_B (the tightest condition)") {
    val p = Pattern.seq(3, 100)
    val planner = new GreedyOrderPlanner(p)
    val stats = noPredStats(100.0 / 125, 15.0 / 125, 10.0 / 125)
    val r = planner.generate(stats)
    // DCS_1 = {rate_C < rate_B, rate_C < rate_A}, tightest first → vs B (pos 1).
    val dcs1 = r.dcs(0).map(_.asInstanceOf[GreedyCond])
    assert(dcs1.size == 2)
    assert(dcs1.head.chosen == 2 && dcs1.head.other == 1)
    assert(dcs1(1).other == 0)
    // DCS_2 = {rate_B < rate_A}; DCS_3 = ∅ (paper §3.1).
    val dcs2 = r.dcs(1).map(_.asInstanceOf[GreedyCond])
    assert(dcs2.size == 1 && dcs2.head.chosen == 1 && dcs2.head.other == 0)
    assert(r.dcs(2).isEmpty)
  }

  for (seed <- 1 to 8) {
    test(s"without predicates the plan sorts positions by ascending rate (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val n = 3 + rnd.nextInt(4)
      val rates = Vector.fill(n)(rnd.nextDouble())
      val p = Pattern.seq(n, 100)
      val r = new GreedyOrderPlanner(p).generate(noPredStats(rates: _*))
      val order = r.plan.asInstanceOf[OrderPlan].order
      assert(order == (0 until n).sortBy(rates).toVector)
    }
  }

  for (seed <- 1 to 8) {
    test(s"greedy is optimal among all orders for small n with predicates (seed=$seed)") {
      // Greedy is a heuristic, but for n=3 with strong skew it should find the
      // cost-minimal order in most random instances; assert it is never worse
      // than 1.5x optimal and exactly optimal when the margin is clear.
      val n = 3
      val p = pairwise(n)
      val stats = randomStats(p, new scala.util.Random(seed))
      val r = new GreedyOrderPlanner(p).generate(stats)
      val got = CostModel.orderCost(r.plan.asInstanceOf[OrderPlan].order, stats)
      val best = (0 until n).permutations.map(o => CostModel.orderCost(o.toVector, stats)).min
      assert(got <= best * 1.5 + 1e-12, s"got=$got best=$best")
    }
  }

  test("deterministic: same stats give the identical plan and DCS structure") {
    val p = pairwise(5)
    val stats = randomStats(p, new scala.util.Random(99))
    val planner = new GreedyOrderPlanner(p)
    val r1 = planner.generate(stats)
    val r2 = planner.generate(stats)
    assert(r1.plan == r2.plan)
    assert(r1.dcs.map(_.map(_.toString)) == r2.dcs.map(_.map(_.toString)))
  }

  test("DCS sizes shrink by one per step (n-1, n-2, …, 0)") {
    val n = 6
    val stats = randomStats(pairwise(n), new scala.util.Random(5))
    val r = new GreedyOrderPlanner(stats.pattern).generate(stats)
    assert(r.dcs.map(_.size) == (1 until n).reverse.map(identity) :+ 0)
  }

  test("DCS conditions hold at creation and are sorted tightest-first") {
    val stats = randomStats(pairwise(5), new scala.util.Random(12))
    val r = new GreedyOrderPlanner(stats.pattern).generate(stats)
    r.dcs.foreach { conds =>
      conds.foreach { c =>
        assert(c.lhs(stats) < c.rhs(stats), s"condition $c must hold at creation")
        assert(c.creationSlack >= 0)
        assert(c.creationSlack == c.rhs(stats) - c.lhs(stats))
      }
      assert(conds.map(_.creationSlack) == conds.map(_.creationSlack).sorted)
    }
  }

  test("predicate selectivities can reverse a pure-rate order") {
    // Position 0 is rare but joins badly (sel≈1); position 2 frequent but
    // joins position 1 with tiny selectivity.
    val p = Pattern.seq(3, 100, Vector(Predicate(1, 2, 0, PredOp.Lt)))
    val stats = of(p, 0.1, 0.3, 0.6, 0.01) // rates, then sel(1, 2)
    val r = new GreedyOrderPlanner(p).generate(stats)
    val order = r.plan.asInstanceOf[OrderPlan].order
    // First pick is still the lowest rate (0); second pick: cand 1 costs
    // 0.3*1.0, cand 2 costs 0.6*1.0 → 1; third: 2 with sel(1,2) applied.
    assert(order == Vector(0, 1, 2))
    // And the step-2 DCS must record cost(1|0) < cost(2|0).
    val c = r.dcs(1).head.asInstanceOf[GreedyCond]
    assert(c.chosen == 1 && c.other == 2 && c.prefix == Vector(0))
  }

  test("cost() delegates to the shared cost model") {
    val stats = randomStats(pairwise(4), new scala.util.Random(77))
    val planner = new GreedyOrderPlanner(stats.pattern)
    val r = planner.generate(stats)
    assert(planner.cost(r.plan, stats) ==
      CostModel.orderCost(r.plan.asInstanceOf[OrderPlan].order, stats))
  }
}
