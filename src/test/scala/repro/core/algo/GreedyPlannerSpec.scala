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

  // Recorded from the eager planner: the plan and every DCS, each condition
  // with its creation slack's bits (see `DcsText`).
  private val golden: Map[String, Vector[String]] = Map(
    "pairwise(3) seed 21" -> Vector(
      "Order(2→1→0)",
      "[cost(2|) < cost(1|) @3f850444458f3ec0; cost(2|) < cost(0|) @3fd52f8a6e7e6940]",
      "[cost(1|2) < cost(0|2) @3fa2da41def4b6a8]",
      "[]",
    ),
    "pairwise(3) default" -> Vector(
      "Order(0→1→2)",
      "[cost(0|) < cost(1|) @0; cost(0|) < cost(2|) @0]",
      "[cost(1|0) < cost(2|0) @0]",
      "[]",
    ),
    "traffic(3) seed 33" -> Vector(
      "Order(2→1→0)",
      "[cost(2|) < cost(0|) @3fcf319af20440f0; cost(2|) < cost(1|) @3fd5c9ce376728a6]",
      "[cost(1|2) < cost(0|2) @3fb21bcefdc181d8]",
      "[]",
    ),
    "pairwise(4) seed 28" -> Vector(
      "Order(2→1→0→3)",
      "[cost(2|) < cost(3|) @3fadfe39e5ac85d8; cost(2|) < cost(1|) @3fc7bf0d96729b32; cost(2|) < cost(0|) @3fd59b0ced1caccb]",
      "[cost(1|2) < cost(3|2) @3fd0a06dfa56db28; cost(1|2) < cost(0|2) @3fd48ef23be26e6c]",
      "[cost(0|2,1) < cost(3|2,1) @3fc35a216a3fed46]",
      "[]",
    ),
    "pairwise(4) default" -> Vector(
      "Order(0→1→2→3)",
      "[cost(0|) < cost(1|) @0; cost(0|) < cost(2|) @0; cost(0|) < cost(3|) @0]",
      "[cost(1|0) < cost(2|0) @0; cost(1|0) < cost(3|0) @0]",
      "[cost(2|0,1) < cost(3|0,1) @0]",
      "[]",
    ),
    "traffic(4) seed 44" -> Vector(
      "Order(1→0→2→3)",
      "[cost(1|) < cost(0|) @3f9874b56ed39f40; cost(1|) < cost(2|) @3f9ba9381b092160; cost(1|) < cost(3|) @3fcf228d8fce4804]",
      "[cost(0|1) < cost(2|1) @3fa2339550560be0; cost(0|1) < cost(3|1) @3fd497d8099b3518]",
      "[cost(2|1,0) < cost(3|1,0) @3fd251655f90739c]",
      "[]",
    ),
    "pairwise(5) seed 35" -> Vector(
      "Order(4→2→3→1→0)",
      "[cost(4|) < cost(2|) @3fcbf17887a0fb8f; cost(4|) < cost(1|) @3fd853a0ede38734; cost(4|) < cost(0|) @3fe2d6aae368a48f; cost(4|) < cost(3|) @3fe4f058e18f6506]",
      "[cost(2|4) < cost(3|4) @3fc31ccaecf1f79a; cost(2|4) < cost(1|4) @3fd8d012e708486b; cost(2|4) < cost(0|4) @3fe3c4884cc7b75c]",
      "[cost(3|4,2) < cost(0|4,2) @3fb93c09b4443202; cost(3|4,2) < cost(1|4,2) @3fc9a0753306ce22]",
      "[cost(1|4,2,3) < cost(0|4,2,3) @3fb728d10fec9048]",
      "[]",
    ),
    "pairwise(5) default" -> Vector(
      "Order(0→1→2→3→4)",
      "[cost(0|) < cost(1|) @0; cost(0|) < cost(2|) @0; cost(0|) < cost(3|) @0; cost(0|) < cost(4|) @0]",
      "[cost(1|0) < cost(2|0) @0; cost(1|0) < cost(3|0) @0; cost(1|0) < cost(4|0) @0]",
      "[cost(2|0,1) < cost(3|0,1) @0; cost(2|0,1) < cost(4|0,1) @0]",
      "[cost(3|0,1,2) < cost(4|0,1,2) @0]",
      "[]",
    ),
    "traffic(5) seed 55" -> Vector(
      "Order(3→2→4→1→0)",
      "[cost(3|) < cost(1|) @3fa62cb9e2fbab10; cost(3|) < cost(2|) @3fab5492b88fa048; cost(3|) < cost(4|) @3fc916deaa4b1228; cost(3|) < cost(0|) @3fd22c5ad2d78d66]",
      "[cost(2|3) < cost(4|3) @3fa75d5b6afb27d0; cost(2|3) < cost(1|3) @3fd71cc7476e7d19; cost(2|3) < cost(0|3) @3fe341c56ef34a8f]",
      "[cost(4|3,2) < cost(1|3,2) @3fa94ce625e1459e; cost(4|3,2) < cost(0|3,2) @3fe1cbefb8439812]",
      "[cost(1|3,2,4) < cost(0|3,2,4) @3fe0372155e583b8]",
      "[]",
    ),
    "pairwise(6) seed 42" -> Vector(
      "Order(3→4→2→0→1→5)",
      "[cost(3|) < cost(2|) @3f9d290a4f98e3c0; cost(3|) < cost(4|) @3fd6603ae3ec8e01; cost(3|) < cost(1|) @3fd764d9f8196b4f; cost(3|) < cost(0|) @3fd9f2aca6989d1d; cost(3|) < cost(5|) @3fe20989eaf41aec]",
      "[cost(4|3) < cost(2|3) @3fa83adbdf58689c; cost(4|3) < cost(0|3) @3fc81ebd73b00ec1; cost(4|3) < cost(1|3) @3fd555be197bc3de; cost(4|3) < cost(5|3) @3fd6bb28544f46c8]",
      "[cost(2|3,4) < cost(1|3,4) @3fc21de2635c4053; cost(2|3,4) < cost(0|3,4) @3fc92201509416ed; cost(2|3,4) < cost(5|3,4) @3fd3bdaa79c7dffd]",
      "[cost(0|3,4,2) < cost(1|3,4,2) @3f84c9c655af1ab0; cost(0|3,4,2) < cost(5|3,4,2) @3fca7770f3e02f8c]",
      "[cost(1|3,4,2,0) < cost(5|3,4,2,0) @3fcb39af48c61661]",
      "[]",
    ),
    "pairwise(6) default" -> Vector(
      "Order(0→1→2→3→4→5)",
      "[cost(0|) < cost(1|) @0; cost(0|) < cost(2|) @0; cost(0|) < cost(3|) @0; cost(0|) < cost(4|) @0; cost(0|) < cost(5|) @0]",
      "[cost(1|0) < cost(2|0) @0; cost(1|0) < cost(3|0) @0; cost(1|0) < cost(4|0) @0; cost(1|0) < cost(5|0) @0]",
      "[cost(2|0,1) < cost(3|0,1) @0; cost(2|0,1) < cost(4|0,1) @0; cost(2|0,1) < cost(5|0,1) @0]",
      "[cost(3|0,1,2) < cost(4|0,1,2) @0; cost(3|0,1,2) < cost(5|0,1,2) @0]",
      "[cost(4|0,1,2,3) < cost(5|0,1,2,3) @0]",
      "[]",
    ),
    "traffic(6) seed 66" -> Vector(
      "Order(3→5→2→1→0→4)",
      "[cost(3|) < cost(5|) @3f50dd6010f3fc40; cost(3|) < cost(4|) @3fdcbb2bf4fd815f; cost(3|) < cost(0|) @3fe3666c7c27403a; cost(3|) < cost(1|) @3fe42c91ccd863d6; cost(3|) < cost(2|) @3feb305a15b6206c]",
      "[cost(5|3) < cost(2|3) @3fad5527ba27a412; cost(5|3) < cost(4|3) @3fd1995361d9b188; cost(5|3) < cost(0|3) @3fe35dfdcc1ec63b; cost(5|3) < cost(1|3) @3fe424231ccfe9d7]",
      "[cost(2|3,5) < cost(4|3,5) @3fc3dabd175fe453; cost(2|3,5) < cost(0|3,5) @3fe188ab507c4bfa; cost(2|3,5) < cost(1|3,5) @3fe24ed0a12d6f96]",
      "[cost(1|3,5,2) < cost(4|3,5,2) @3fbf3dc7ea226730; cost(1|3,5,2) < cost(0|3,5,2) @3fe079b507e89fcc]",
      "[cost(0|3,5,2,1) < cost(4|3,5,2,1) @3fb7d561f5d0bfbc]",
      "[]",
    ),
  )

  for ((name, stats) <- DcsText.cases) {
    test(s"golden plan and DCSs ($name)") {
      assert(DcsText.of(new GreedyOrderPlanner(stats.pattern).generate(stats)) == golden(name))
    }
  }
}
