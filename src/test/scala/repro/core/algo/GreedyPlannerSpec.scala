package repro.core.algo

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pattern
import repro.core.plan.{CostModel, OrderPlan}
import repro.core.stats.Stats

class GreedyPlannerSpec extends AnyFunSuite {

  private def noPredStats(rates: Double*): Stats = {
    val n = rates.size
    Stats(rates.toVector, Vector.tabulate(n, n)((_, _) => 1.0))
  }

  private def randomStats(n: Int, seed: Long): Stats = {
    val rnd = new scala.util.Random(seed)
    val rates = Vector.fill(n)(0.02 + rnd.nextDouble() * 0.9)
    val symm = Array.fill(n, n)(1.0)
    for (i <- 0 until n; j <- i + 1 until n) {
      val s = 0.05 + rnd.nextDouble() * 0.9
      symm(i)(j) = s; symm(j)(i) = s
    }
    Stats(rates, Vector.tabulate(n, n)((i, j) => symm(i)(j)))
  }

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
      val stats = randomStats(n, seed)
      val p = Pattern.seq(n, 100)
      val r = new GreedyOrderPlanner(p).generate(stats)
      val got = CostModel.orderCost(r.plan.asInstanceOf[OrderPlan].order, stats)
      val best = (0 until n).permutations.map(o => CostModel.orderCost(o.toVector, stats)).min
      assert(got <= best * 1.5 + 1e-12, s"got=$got best=$best")
    }
  }

  test("deterministic: same stats give the identical plan and DCS structure") {
    val stats = randomStats(5, 99)
    val p = Pattern.seq(5, 100)
    val planner = new GreedyOrderPlanner(p)
    val r1 = planner.generate(stats)
    val r2 = planner.generate(stats)
    assert(r1.plan == r2.plan)
    assert(r1.dcs.map(_.map(_.toString)) == r2.dcs.map(_.map(_.toString)))
  }

  test("DCS sizes shrink by one per step (n-1, n-2, …, 0)") {
    val n = 6
    val stats = randomStats(n, 5)
    val r = new GreedyOrderPlanner(Pattern.seq(n, 100)).generate(stats)
    assert(r.dcs.map(_.size) == (1 until n).reverse.map(identity) :+ 0)
  }

  test("DCS conditions hold at creation and are sorted tightest-first") {
    val stats = randomStats(5, 12)
    val r = new GreedyOrderPlanner(Pattern.seq(5, 100)).generate(stats)
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
    val rates = Vector(0.1, 0.3, 0.6)
    val sel = Array.fill(3, 3)(1.0)
    sel(1)(2) = 0.01; sel(2)(1) = 0.01
    val stats = Stats(rates, Vector.tabulate(3, 3)((i, j) => sel(i)(j)))
    val r = new GreedyOrderPlanner(Pattern.seq(3, 100)).generate(stats)
    val order = r.plan.asInstanceOf[OrderPlan].order
    // First pick is still the lowest rate (0); second pick: cand 1 costs
    // 0.3*1.0, cand 2 costs 0.6*1.0 → 1; third: 2 with sel(1,2) applied.
    assert(order == Vector(0, 1, 2))
    // And the step-2 DCS must record cost(1|0) < cost(2|0).
    val c = r.dcs(1).head.asInstanceOf[GreedyCond]
    assert(c.chosen == 1 && c.other == 2 && c.prefix == Vector(0))
  }

  test("cost() delegates to the shared cost model") {
    val stats = randomStats(4, 77)
    val planner = new GreedyOrderPlanner(Pattern.seq(4, 100))
    val r = planner.generate(stats)
    assert(planner.cost(r.plan, stats) ==
      CostModel.orderCost(r.plan.asInstanceOf[OrderPlan].order, stats))
  }
}
