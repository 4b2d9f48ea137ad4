package repro.core.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.plan._

class TreeEngineSpec extends AnyFunSuite {

  private def ev(id: Long, t: Int, a0: Double = 0.0) = Event(id, id, t, a0, 0.0)

  private def leftDeep(n: Int): TreeNode =
    (1 until n).foldLeft(LeafNode(0): TreeNode)((acc, i) => InnerNode(acc, LeafNode(i)))

  private def rightDeep(n: Int): TreeNode =
    (0 until n - 1).foldRight(LeafNode(n - 1): TreeNode)((i, acc) => InnerNode(LeafNode(i), acc))

  test("left-deep tree detects a simple SEQ") {
    val p = Pattern.seq(3, 100)
    val eng = new TreeEngine(p, TreePlan(leftDeep(3)))
    assert(BruteForce.runEngine(eng, Seq(ev(0, 0), ev(1, 1), ev(2, 2))) ==
      Set(Vector(0L, 1L, 2L)))
  }

  test("right-deep tree detects the same match (paper Fig. 3)") {
    val p = Pattern.seq(3, 100)
    val eng = new TreeEngine(p, TreePlan(rightDeep(3)))
    assert(BruteForce.runEngine(eng, Seq(ev(0, 0), ev(1, 1), ev(2, 2))) ==
      Set(Vector(0L, 1L, 2L)))
  }

  test("SEQ boundary: out-of-order arrival of positions yields no match") {
    val p = Pattern.seq(2, 100)
    val eng = new TreeEngine(p, TreePlan(leftDeep(2)))
    assert(BruteForce.runEngine(eng, Seq(ev(0, 1), ev(1, 0))).isEmpty)
  }

  test("window enforced at joins") {
    val p = Pattern.seq(2, 5)
    val eng = new TreeEngine(p, TreePlan(leftDeep(2)))
    val evs = Seq(Event(0, 0, 0, 0, 0), Event(1, 10, 1, 0, 0))
    assert(BruteForce.runEngine(eng, evs).isEmpty)
  }

  test("cross predicates enforced at the joining node") {
    val p = Pattern.seq(3, 100, Vector(Predicate(0, 2, 0, PredOp.Lt)))
    val eng = new TreeEngine(p, TreePlan(rightDeep(3)))
    val evs = Seq(ev(0, 0, a0 = 5.0), ev(1, 1), ev(2, 2, a0 = 1.0)) // 5 < 1 fails
    assert(BruteForce.runEngine(eng, evs).isEmpty)
    val eng2 = new TreeEngine(p, TreePlan(rightDeep(3)))
    val evs2 = Seq(ev(0, 0, a0 = 0.5), ev(1, 1), ev(2, 2, a0 = 1.0))
    assert(BruteForce.runEngine(eng2, evs2).size == 1)
  }

  // Exhaustive shape-equivalence: every contiguous tree shape produces the
  // brute-force match set.
  for {
    n <- Seq(3, 4)
    seed <- 1 to 4
  } {
    val shapes = BruteForce.allTrees(0, n - 1)
    for ((shape, si) <- shapes.zipWithIndex) {
      test(s"n=$n stream#$seed shape#$si ($shape) == brute force") {
        val preds = (0 until n - 1).map(i => Predicate(i, i + 1, 0, PredOp.Lt)).toVector
        val p = Pattern.seq(n, 12, preds)
        val evs = BruteForce.randomStream(n, 90, seed * 17 + si)
        val eng = new TreeEngine(p, TreePlan(shape))
        assert(BruteForce.runEngine(eng, evs) == BruteForce.matches(p, evs))
      }
    }
  }

  for (seed <- 1 to 4) {
    test(s"tree and order engines agree on every match (seed=$seed)") {
      val p = Pattern.seq(4, 15, Vector(
        Predicate(0, 1, 0, PredOp.Lt), Predicate(2, 3, 0, PredOp.Gt)))
      val evs = BruteForce.randomStream(4, 150, seed + 50)
      val tree = new TreeEngine(p, TreePlan(InnerNode(
        InnerNode(LeafNode(0), LeafNode(1)), InnerNode(LeafNode(2), LeafNode(3)))))
      val order = new OrderEngine(p, OrderPlan(Vector(2, 3, 0, 1)))
      assert(BruteForce.runEngine(tree, evs) == BruteForce.runEngine(order, evs))
    }
  }

  test("every plan of both kinds equals brute force on tied and NaN attributes (random SEQ/AND, n = 2-4)") {
    val rnd = new scala.util.Random(71)
    val values = Vector(0.0, -0.0, 1.0, 2.0, Double.NaN)
    var matched = 0
    for (conj <- Seq(false, true); n <- 2 to 4; _ <- 1 to 4) {
      val preds = Vector.fill(1 + rnd.nextInt(n + 1)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      val p = if (conj) Pattern.conj(n, 6, preds) else Pattern.seq(n, 6, preds)
      var ts = 0L
      val evs = Vector.tabulate(200) { i =>
        ts += rnd.nextInt(2)
        Event(i.toLong, ts, rnd.nextInt(n + 1), values(rnd.nextInt(values.size)), values(rnd.nextInt(values.size)))
      }
      val want = BruteForce.matches(p, evs)
      matched += want.size
      for (order <- (0 until n).permutations.map(_.toVector))
        assert(BruteForce.runEngine(new OrderEngine(p, OrderPlan(order)), evs) == want, s"$p ${OrderPlan(order)}")
      for (shape <- BruteForce.allTrees(0, n - 1))
        assert(BruteForce.runEngine(new TreeEngine(p, TreePlan(shape)), evs) == want, s"$p ${TreePlan(shape)}")
    }
    assert(matched > 0, "the streams must match")
  }

  test("pruning keeps results identical on long streams") {
    val p = Pattern.seq(3, 10)
    val evs = BruteForce.randomStream(3, 600, 13) // 600 pattern events: the engine prunes 4 times
    val eng = new TreeEngine(p, TreePlan(rightDeep(3)))
    assert(BruteForce.runEngine(eng, evs) == BruteForce.matches(p, evs))
  }

  test("partial-match count depends on the tree shape (ZStream's premise)") {
    // Types 0,1 frequent; type 2 rare. Joining (1,2) first is cheaper than (0,1).
    val rnd = new scala.util.Random(7)
    val evs = Vector.tabulate(400) { i =>
      val t = { val u = rnd.nextDouble(); if (u < 0.48) 0 else if (u < 0.96) 1 else 2 }
      Event(i, i, t, rnd.nextDouble(), 0)
    }
    val p = Pattern.seq(3, 30)
    val badShape = new TreeEngine(p, TreePlan(leftDeep(3)))   // joins (0,1) first
    val goodShape = new TreeEngine(p, TreePlan(rightDeep(3))) // joins (1,2) first
    assert(BruteForce.runEngine(badShape, evs) == BruteForce.runEngine(goodShape, evs))
    assert(goodShape.partialMatchesCreated < badShape.partialMatchesCreated)
  }

  test("AND pattern accepted by tree engine") {
    val p = Pattern.conj(3, 100)
    val eng = new TreeEngine(p, TreePlan(leftDeep(3)))
    val evs = Seq(ev(0, 2), ev(1, 0), ev(2, 1))
    assert(BruteForce.runEngine(eng, evs) == Set(Vector(1L, 2L, 0L)))
  }

  test("foreign event types are ignored") {
    val p = Pattern.seq(2, 100)
    val eng = new TreeEngine(p, TreePlan(leftDeep(2)))
    assert(BruteForce.runEngine(eng, Seq(ev(0, 0), ev(1, 9), ev(2, 1))) ==
      Set(Vector(0L, 2L)))
  }
}
