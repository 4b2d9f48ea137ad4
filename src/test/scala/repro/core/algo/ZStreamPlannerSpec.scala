package repro.core.algo

import org.scalatest.funsuite.AnyFunSuite
import repro.core.BruteForce
import repro.core.plan._
import repro.core.stats.TestStats.{of, pairwise, randomStats}

class ZStreamPlannerSpec extends AnyFunSuite {

  for (n <- 2 to 6; seed <- 1 to 4) {
    test(s"DP finds the cost-minimal contiguous tree (n=$n seed=$seed)") {
      val stats = randomStats(pairwise(n), new scala.util.Random(seed * 31 + n))
      val planner = new ZStreamPlanner(stats.pattern)
      val r = planner.generate(stats)
      val got = CostModel.treeCost(r.plan.asInstanceOf[TreePlan].root, stats)
      val best = BruteForce.allTrees(0, n - 1).map(CostModel.treeCost(_, stats)).min
      assert(math.abs(got - best) < 1e-12 * math.max(1.0, best),
        s"got=$got best=$best plan=${r.plan}")
    }
  }

  test("skewed rates push the rare pair deepest") {
    // Position 2 extremely rare → join it early (deepest node contains 2).
    val stats = of(pairwise(3), 0.5, 0.4, 0.001, 0.5, 0.5, 0.5)
    val r = new ZStreamPlanner(stats.pattern).generate(stats)
    val root = r.plan.asInstanceOf[TreePlan].root.asInstanceOf[InnerNode]
    // Best tree joins (1,2) first: root = (0, (1,2)).
    assert(root.left == LeafNode(0) && root.right == InnerNode(LeafNode(1), LeafNode(2)))
  }

  test("deterministic: identical stats produce identical plan and DCSs") {
    val stats = randomStats(pairwise(6), new scala.util.Random(123))
    val planner = new ZStreamPlanner(stats.pattern)
    val r1 = planner.generate(stats)
    val r2 = planner.generate(stats)
    assert(r1.plan == r2.plan)
    assert(r1.dcs.map(_.map(_.toString)) == r2.dcs.map(_.map(_.toString)))
  }

  test("one DCS per internal node, sizes = alternative split counts") {
    val n = 5
    val stats = randomStats(pairwise(n), new scala.util.Random(7))
    val r = new ZStreamPlanner(stats.pattern).generate(stats)
    val root = r.plan.asInstanceOf[TreePlan].root
    val inner = root.nodesBottomUp.collect { case i: InnerNode => i }
    assert(r.dcs.size == inner.size && inner.size == n - 1)
    r.dcs.zip(inner).foreach { case (conds, node) =>
      val rangeLen = node.hi - node.lo + 1
      assert(conds.size == rangeLen - 2, s"node $node: ${conds.size} conditions")
    }
  }

  test("DCSs are ordered leaves-to-root (ascending range size)") {
    val stats = randomStats(pairwise(6), new scala.util.Random(11))
    val r = new ZStreamPlanner(stats.pattern).generate(stats)
    val root = r.plan.asInstanceOf[TreePlan].root
    val sizes = root.nodesBottomUp.collect { case i: InnerNode => i.hi - i.lo }
    assert(sizes == sizes.sorted)
  }

  test("conditions hold at creation and match the tree cost model") {
    val stats = randomStats(pairwise(5), new scala.util.Random(21))
    val r = new ZStreamPlanner(stats.pattern).generate(stats)
    r.dcs.flatten.foreach { c0 =>
      val c = c0.asInstanceOf[TreeCond]
      assert(c.lhs(stats) <= c.rhs(stats) + 1e-12, s"$c must hold at creation")
      // eval == tree cost of the split minus the split-invariant terms
      // (leaf rates; the root cardinality is likewise excluded on both sides).
      val leafMass = (c.chosen.lo to c.chosen.hi).map(stats.rate).sum
      val lhsDirect = CostModel.treeCost(c.chosen.left, stats) +
        CostModel.treeCost(c.chosen.right, stats) - leafMass
      assert(math.abs(c.lhs(stats) - lhsDirect) < 1e-12)
      assert(c.creationSlack >= -1e-12)
      // The slack is the difference of the two full split costs the DP compared.
      assert(c.creationSlack ==
        CostModel.treeCost(c.other, stats) - CostModel.treeCost(c.chosen, stats))
    }
  }

  test("a rate swap flips the chosen tree and violates an invariant") {
    // Start: pos 2 rare. After swap: pos 0 rare → different optimal tree.
    val before = of(pairwise(3), 0.5, 0.3, 0.01, 0.4, 0.4, 0.4)
    val after = of(pairwise(3), 0.01, 0.3, 0.5, 0.4, 0.4, 0.4)
    val planner = new ZStreamPlanner(before.pattern)
    val r1 = planner.generate(before)
    val r2 = planner.generate(after)
    assert(r1.plan != r2.plan)
    assert(r1.dcs.flatten.exists(_.violated(after, 0.0)),
      "the root invariant must detect the swap")
  }

  test("cost() delegates to the tree cost model") {
    val stats = randomStats(pairwise(4), new scala.util.Random(3))
    val planner = new ZStreamPlanner(stats.pattern)
    val r = planner.generate(stats)
    assert(planner.cost(r.plan, stats) ==
      CostModel.treeCost(r.plan.asInstanceOf[TreePlan].root, stats))
  }
}
