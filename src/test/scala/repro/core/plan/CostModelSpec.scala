package repro.core.plan

import org.scalatest.funsuite.AnyFunSuite
import repro.core.stats.Stats

class CostModelSpec extends AnyFunSuite {

  private def randomStats(n: Int, seed: Long): Stats = {
    val rnd = new scala.util.Random(seed)
    val rates = Vector.fill(n)(0.05 + rnd.nextDouble() * 0.9)
    val sel = Vector.tabulate(n, n) { (i, j) =>
      if (i == j) 1.0 else 0.0 // filled symmetric below
    }
    val symm = Array.tabulate(n, n)((i, j) => sel(i)(j))
    for (i <- 0 until n; j <- i + 1 until n) {
      val s = 0.05 + rnd.nextDouble() * 0.9
      symm(i)(j) = s; symm(j)(i) = s
    }
    for (i <- 0 until n) symm(i)(i) = 1.0
    Stats(rates, Vector.tabulate(n, n)((i, j) => symm(i)(j)))
  }

  test("orderCost of a single position equals its rate") {
    val s = Stats(Vector(0.3), Vector(Vector(1.0)))
    assert(CostModel.orderCost(Vector(0), s) == 0.3)
  }

  test("orderCost accumulates rate and selectivity products") {
    val s = Stats(Vector(0.5, 0.2), Vector(Vector(1.0, 0.1), Vector(0.1, 1.0)))
    // prefix [0]: 0.5 ; prefix [0,1]: 0.5*0.2*0.1 = 0.01 → total 0.51
    assert(math.abs(CostModel.orderCost(Vector(0, 1), s) - 0.51) < 1e-12)
    // reversed: 0.2 + 0.2*0.5*0.1 = 0.21
    assert(math.abs(CostModel.orderCost(Vector(1, 0), s) - 0.21) < 1e-12)
  }

  test("greedyStepCost matches the marginal term of orderCost") {
    for (seed <- 1 to 5) {
      val s = randomStats(4, seed)
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
    val s = randomStats(3, 42)
    val expected = s.rates(0) * s.rates(1) * s.rates(2) *
      s.sel(0)(1) * s.sel(0)(2) * s.sel(1)(2)
    assert(math.abs(CostModel.rangeCardinality(0, 2, s) - expected) < 1e-12)
  }

  for (seed <- 1 to 6; n <- 3 to 5) {
    test(s"cardinality is shape-independent: Card(L)*Card(R)*SEL(L,R) == Card(range) (n=$n seed=$seed)") {
      val s = randomStats(n, seed)
      for (split <- 0 until n - 1) {
        val cross = (for (i <- 0 to split; j <- split + 1 until n) yield s.sel(i)(j)).product
        val viaSplit = CostModel.rangeCardinality(0, split, s) *
          CostModel.rangeCardinality(split + 1, n - 1, s) * cross
        val direct = CostModel.rangeCardinality(0, n - 1, s)
        assert(math.abs(viaSplit - direct) < 1e-12 * math.max(1.0, direct))
      }
    }
  }

  test("treeCost of a leaf is its arrival rate") {
    val s = randomStats(2, 3)
    assert(CostModel.treeCost(LeafNode(1), s) == s.rates(1))
  }

  test("treeCost follows the ZStream recursion") {
    val s = randomStats(3, 4)
    val t = InnerNode(InnerNode(LeafNode(0), LeafNode(1)), LeafNode(2))
    val lower = s.rates(0) + s.rates(1) + CostModel.rangeCardinality(0, 1, s)
    val expected = lower + s.rates(2) + CostModel.rangeCardinality(0, 2, s)
    assert(math.abs(CostModel.treeCost(t, s) - expected) < 1e-12)
  }

  test("planCost dispatches on plan type") {
    val s = randomStats(2, 5)
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
