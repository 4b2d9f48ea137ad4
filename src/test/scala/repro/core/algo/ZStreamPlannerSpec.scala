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

  // Recorded from the eager planner: the plan and every DCS, each condition
  // with its creation slack's bits (see `DcsText`).
  private val golden: Map[String, Vector[String]] = Map(
    "pairwise(3) seed 21" -> Vector(
      "Tree(0,(1,2))",
      "[]",
      "[cost(0,(1,2)) < cost((0,1),2) @3fbbbb1478591840]",
    ),
    "pairwise(3) default" -> Vector(
      "Tree(0,(1,2))",
      "[]",
      "[cost(0,(1,2)) < cost((0,1),2) @0]",
    ),
    "traffic(3) seed 33" -> Vector(
      "Tree((0,1),2)",
      "[]",
      "[cost((0,1),2) < cost(0,(1,2)) @3fb02ffd84b17c20]",
    ),
    "pairwise(4) seed 28" -> Vector(
      "Tree((0,(1,2)),3)",
      "[]",
      "[cost(0,(1,2)) < cost((0,1),2) @3f944323ac85df00]",
      "[cost((0,(1,2)),3) < cost(0,((1,2),3)) @3f7600b0fc5a9d00; cost((0,(1,2)),3) < cost((0,1),(2,3)) @3fc21b5c94551468]",
    ),
    "pairwise(4) default" -> Vector(
      "Tree(0,(1,(2,3)))",
      "[]",
      "[cost(1,(2,3)) < cost((1,2),3) @0]",
      "[cost(0,(1,(2,3))) < cost((0,(1,2)),3) @0; cost(0,(1,(2,3))) < cost((0,1),(2,3)) @3f9e000000000000]",
    ),
    "traffic(4) seed 44" -> Vector(
      "Tree(((0,1),2),3)",
      "[]",
      "[cost((0,1),2) < cost(0,(1,2)) @3f97ad911b7d8c80]",
      "[cost(((0,1),2),3) < cost(0,((1,2),3)) @3fb4eb680a9c12c0; cost(((0,1),2),3) < cost((0,1),(2,3)) @3fd0c383a4a80780]",
    ),
    "pairwise(5) seed 35" -> Vector(
      "Tree(0,(1,(2,(3,4))))",
      "[]",
      "[cost(2,(3,4)) < cost((2,3),4) @3fc24b3f037c5f78]",
      "[cost(1,(2,(3,4))) < cost(((1,2),3),4) @3fba510222b911f0; cost(1,(2,(3,4))) < cost((1,2),(3,4)) @3fbc6a32f93d3560]",
      "[cost(0,(1,(2,(3,4)))) < cost((((0,1),2),3),4) @3fafad47f53074c0; cost(0,(1,(2,(3,4)))) < cost((0,1),(2,(3,4))) @3fb20ebf4d8ec220; cost(0,(1,(2,(3,4)))) < cost(((0,1),2),(3,4)) @3fb37760f3cfb1a0]",
    ),
    "pairwise(5) default" -> Vector(
      "Tree(0,(1,(2,(3,4))))",
      "[]",
      "[cost(2,(3,4)) < cost((2,3),4) @0]",
      "[cost(1,(2,(3,4))) < cost((1,(2,3)),4) @0; cost(1,(2,(3,4))) < cost((1,2),(3,4)) @3f9374bc6a7ef9c0]",
      "[cost(0,(1,(2,(3,4)))) < cost((0,(1,(2,3))),4) @0; cost(0,(1,(2,(3,4)))) < cost((0,1),(2,(3,4))) @3f9474538ef34d40; cost(0,(1,(2,(3,4)))) < cost((0,(1,2)),(3,4)) @3f9474538ef34d40]",
    ),
    "traffic(5) seed 55" -> Vector(
      "Tree(0,(1,((2,3),4)))",
      "[]",
      "[cost((2,3),4) < cost(2,(3,4)) @3f9255f411f7eb80]",
      "[cost(1,((2,3),4)) < cost((1,(2,3)),4) @3f57afa88e240800; cost(1,((2,3),4)) < cost((1,2),(3,4)) @3fb709e87fd1c410]",
      "[cost(0,(1,((2,3),4))) < cost((0,(1,(2,3))),4) @3f568491323d9000; cost(0,(1,((2,3),4))) < cost((0,1),((2,3),4)) @3fa74d1dae9fc580; cost(0,(1,((2,3),4))) < cost(((0,1),2),(3,4)) @3fb161effe920280]",
    ),
    "pairwise(6) seed 42" -> Vector(
      "Tree((0,(1,(2,(3,4)))),5)",
      "[]",
      "[cost(2,(3,4)) < cost((2,3),4) @3f8a1b78e7e28f00]",
      "[cost(1,(2,(3,4))) < cost((1,(2,3)),4) @3f95645a21fd75c0; cost(1,(2,(3,4))) < cost((1,2),(3,4)) @3fb512feacc2fc00]",
      "[cost(0,(1,(2,(3,4)))) < cost((0,(1,(2,3))),4) @3f95a027b710ed80; cost(0,(1,(2,(3,4)))) < cost((0,(1,2)),(3,4)) @3fb6b12a29af4120; cost(0,(1,(2,(3,4)))) < cost((0,1),(2,(3,4))) @3fc4edc68f28d650]",
      "[cost((0,(1,(2,(3,4)))),5) < cost(0,((1,(2,(3,4))),5)) @3ece1c3dd4200000; cost((0,(1,(2,(3,4)))),5) < cost((0,(1,2)),((3,4),5)) @3fb9c11a6125e140; cost((0,(1,(2,(3,4)))),5) < cost((0,1),((2,(3,4)),5)) @3fc4fa9d11764bf0; cost((0,(1,(2,(3,4)))),5) < cost((0,(1,(2,3))),(4,5)) @3fd950b77406aa90]",
    ),
    "pairwise(6) default" -> Vector(
      "Tree(0,(1,(2,(3,(4,5)))))",
      "[]",
      "[cost(3,(4,5)) < cost((3,4),5) @0]",
      "[cost(2,(3,(4,5))) < cost((2,(3,4)),5) @0; cost(2,(3,(4,5))) < cost((2,3),(4,5)) @3f8b425ed097b440]",
      "[cost(1,(2,(3,(4,5)))) < cost((1,(2,(3,4))),5) @0; cost(1,(2,(3,(4,5)))) < cost((1,2),(3,(4,5))) @3f8c6b74f0329180; cost(1,(2,(3,(4,5)))) < cost((1,(2,3)),(4,5)) @3f8c6b74f0329180]",
      "[cost(0,(1,(2,(3,(4,5))))) < cost((0,(1,(2,(3,4)))),5) @0; cost(0,(1,(2,(3,(4,5))))) < cost((0,1),(2,(3,(4,5)))) @3f8c71b641511f00; cost(0,(1,(2,(3,(4,5))))) < cost((0,(1,(2,3))),(4,5)) @3f8c71b641511f00; cost(0,(1,(2,(3,(4,5))))) < cost((0,(1,2)),(3,(4,5))) @3f8d9acc60ebfc00]",
    ),
    "traffic(6) seed 66" -> Vector(
      "Tree(((0,(1,(2,3))),4),5)",
      "[]",
      "[cost(1,(2,3)) < cost((1,2),3) @3fc177949c9832e8]",
      "[cost(0,(1,(2,3))) < cost((0,1),(2,3)) @3fc08321210f6520; cost(0,(1,(2,3))) < cost(((0,1),2),3) @3fc2e959c08ef4d0]",
      "[cost((0,(1,(2,3))),4) < cost(0,((1,(2,3)),4)) @3f2ad66484814000; cost((0,(1,(2,3))),4) < cost((0,1),((2,3),4)) @3fc0d8859c0c37f0; cost((0,(1,(2,3))),4) < cost(((0,1),2),(3,4)) @3fc5cd4138892460]",
      "[cost(((0,(1,(2,3))),4),5) < cost(0,(((1,(2,3)),4),5)) @3f230f96a8240000; cost(((0,(1,(2,3))),4),5) < cost((0,(1,(2,3))),(4,5)) @3f9d1a970df8d600; cost(((0,(1,(2,3))),4),5) < cost((0,1),(((2,3),4),5)) @3fc0daedabb17140; cost(((0,(1,(2,3))),4),5) < cost(((0,1),2),((3,4),5)) @3fc5f3d9ea21e730]",
    ),
  )

  for ((name, stats) <- DcsText.cases) {
    test(s"golden plan and DCSs ($name)") {
      assert(DcsText.of(new ZStreamPlanner(stats.pattern).generate(stats)) == golden(name))
    }
  }
}
