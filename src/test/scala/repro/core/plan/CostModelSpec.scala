package repro.core.plan

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Pattern
import repro.core.stats.TestStats.{of, pairwise, randomStats}
import scala.util.Random

class CostModelSpec extends AnyFunSuite {

  private val MinRate = 0.05 // rates in [0.05, 0.95)

  test("orderCost of a single position equals its rate") {
    val s = of(Pattern.seq(1, 100), 0.3)
    assert(CostModel.orderCost(Vector(0), s) == 0.3)
  }

  test("orderCost accumulates rate and selectivity products") {
    val s = of(pairwise(2), 0.5, 0.2, 0.1)
    // prefix [0]: 0.5 ; prefix [0,1]: 0.5*0.2*0.1 = 0.01 → total 0.51
    assert(math.abs(CostModel.orderCost(Vector(0, 1), s) - 0.51) < 1e-12)
    // reversed: 0.2 + 0.2*0.5*0.1 = 0.21
    assert(math.abs(CostModel.orderCost(Vector(1, 0), s) - 0.21) < 1e-12)
  }

  test("greedyStepCost matches the marginal term of orderCost") {
    for (seed <- 1 to 5) {
      val s = randomStats(pairwise(4), new Random(seed), MinRate)
      val order = Vector(2, 0, 3, 1)
      var prefixProd = 1.0
      var total = 0.0
      var prefix = Vector.empty[Int]
      for (p <- order) {
        val step = CostModel.greedyStepCost(prefix, p, s)
        prefixProd *= step
        total += prefixProd
        prefix = prefix :+ p
      }
      assert(math.abs(total - CostModel.orderCost(order, s)) < 1e-12 * math.max(1, total))
    }
  }

  test("rangeCardinality is the product of rates and pairwise selectivities") {
    val s = randomStats(pairwise(3), new Random(42), MinRate)
    val expected = s.rate(0) * s.rate(1) * s.rate(2) *
      s.sel(0, 1) * s.sel(0, 2) * s.sel(1, 2)
    assert(math.abs(CostModel.rangeCardinality(0, 2, s) - expected) < 1e-12)
  }

  for (seed <- 1 to 6; n <- 3 to 5) {
    test(s"cardinality is shape-independent: Card(L)*Card(R)*SEL(L,R) == Card(range) (n=$n seed=$seed)") {
      val s = randomStats(pairwise(n), new Random(seed), MinRate)
      for (split <- 0 until n - 1) {
        val cross = (for (i <- 0 to split; j <- split + 1 until n) yield s.sel(i, j)).product
        val viaSplit = CostModel.rangeCardinality(0, split, s) *
          CostModel.rangeCardinality(split + 1, n - 1, s) * cross
        val direct = CostModel.rangeCardinality(0, n - 1, s)
        assert(math.abs(viaSplit - direct) < 1e-12 * math.max(1.0, direct))
      }
    }
  }

  test("treeCost of a leaf is its arrival rate") {
    val s = randomStats(pairwise(2), new Random(3), MinRate)
    assert(CostModel.treeCost(LeafNode(1), s) == s.rate(1))
  }

  test("treeCost follows the ZStream recursion") {
    val s = randomStats(pairwise(3), new Random(4), MinRate)
    val t = InnerNode(InnerNode(LeafNode(0), LeafNode(1)), LeafNode(2))
    val lower = s.rate(0) + s.rate(1) + CostModel.rangeCardinality(0, 1, s)
    val expected = lower + s.rate(2) + CostModel.rangeCardinality(0, 2, s)
    assert(math.abs(CostModel.treeCost(t, s) - expected) < 1e-12)
  }

  test("planCost dispatches on plan type") {
    val s = randomStats(pairwise(2), new Random(5), MinRate)
    assert(CostModel.planCost(OrderPlan(Vector(0, 1)), s) == CostModel.orderCost(Vector(0, 1), s))
    val tp = TreePlan(InnerNode(LeafNode(0), LeafNode(1)))
    assert(CostModel.planCost(tp, s) == CostModel.treeCost(tp.root, s))
  }

  test("InnerNode rejects non-adjacent ranges") {
    intercept[IllegalArgumentException] { InnerNode(LeafNode(0), LeafNode(2)) }
  }

  test("OrderPlan rejects duplicated positions") {
    intercept[IllegalArgumentException] { OrderPlan(Vector(0, 0, 1)) }
  }

  test("nodesBottomUp yields leaves before inner nodes") {
    val t = InnerNode(InnerNode(LeafNode(0), LeafNode(1)), LeafNode(2))
    val sizes = t.nodesBottomUp.map(n => n.hi - n.lo)
    assert(sizes == sizes.sorted)
    assert(t.nodesBottomUp.last == t)
  }
}
