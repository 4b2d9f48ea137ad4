package repro.core.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.plan.OrderPlan

class OrderEngineSpec extends AnyFunSuite {

  private def ev(id: Long, t: Int, a0: Double = 0.0, a1: Double = 0.0) =
    Event(id, id, t, a0, a1)

  test("simple SEQ(0,1,2) detected in temporal plan order") {
    val p = Pattern.seq(3, 100)
    val eng = new OrderEngine(p, OrderPlan(Vector(0, 1, 2)))
    val evs = Seq(ev(0, 0), ev(1, 1), ev(2, 2))
    assert(BruteForce.runEngine(eng, evs) == Set(Vector(0L, 1L, 2L)))
  }

  test("same match found with the reversed (lazy) plan order") {
    val p = Pattern.seq(3, 100)
    val eng = new OrderEngine(p, OrderPlan(Vector(2, 1, 0)))
    val evs = Seq(ev(0, 0), ev(1, 1), ev(2, 2))
    assert(BruteForce.runEngine(eng, evs) == Set(Vector(0L, 1L, 2L)))
  }

  test("SEQ requires strictly increasing timestamps per position order") {
    val p = Pattern.seq(2, 100)
    val eng = new OrderEngine(p, OrderPlan(Vector(0, 1)))
    // type 1 arrives before type 0 → no match.
    assert(BruteForce.runEngine(eng, Seq(ev(0, 1), ev(1, 0))).isEmpty)
  }

  test("window excludes matches spanning more than W") {
    val p = Pattern.seq(2, 5)
    val eng = new OrderEngine(p, OrderPlan(Vector(0, 1)))
    val evs = Seq(ev(0, 0), ev(1, 1)) // ids 0 (ts 0), 1 (ts 1): in window
    val far = Seq(ev(0, 0), ev(10, 1).copy(ts = 10, etype = 1)) // ts gap 10 > 5
    assert(BruteForce.runEngine(new OrderEngine(p, OrderPlan(Vector(0, 1))), far).isEmpty)
    assert(BruteForce.runEngine(eng, evs).nonEmpty)
  }

  test("predicates filter combinations") {
    val p = Pattern.seq(2, 100, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val eng = new OrderEngine(p, OrderPlan(Vector(0, 1)))
    val evs = Seq(ev(0, 0, a0 = 5.0), ev(1, 1, a0 = 3.0), ev(2, 2).copy(etype = 1, a0 = 9.0))
    // Only (0, 2) satisfies a0: 5 < 9.
    assert(BruteForce.runEngine(eng, evs) == Set(Vector(0L, 2L)))
  }

  test("AND pattern matches regardless of temporal order") {
    val p = Pattern.conj(3, 100)
    val eng = new OrderEngine(p, OrderPlan(Vector(1, 2, 0)))
    val evs = Seq(ev(0, 2), ev(1, 0), ev(2, 1)) // types 2,0,1 arrive shuffled
    assert(BruteForce.runEngine(eng, evs) == Set(Vector(1L, 2L, 0L)))
  }

  test("multiple matches enumerated: every valid combination exactly once") {
    val p = Pattern.seq(2, 100)
    val eng = new OrderEngine(p, OrderPlan(Vector(0, 1)))
    val evs = Seq(ev(0, 0), ev(1, 0), ev(2, 1), ev(3, 1))
    // a-events {0,1} × b-events {2,3} = 4 matches.
    assert(BruteForce.runEngine(eng, evs).size == 4)
  }

  test("events of foreign types are ignored") {
    val p = Pattern.seq(2, 100)
    val eng = new OrderEngine(p, OrderPlan(Vector(0, 1)))
    val evs = Seq(ev(0, 0), ev(1, 7), ev(2, 1))
    assert(BruteForce.runEngine(eng, evs) == Set(Vector(0L, 2L)))
  }

  // Exhaustive plan-equivalence: every permutation of the plan order yields
  // exactly the brute-force match set.
  for {
    kind <- Seq("seq", "and")
    seed <- 1 to 6
  } {
    val n = 3
    val perms = (0 until n).permutations.map(_.toVector).toVector
    for (perm <- perms) {
      test(s"n=$n $kind stream#$seed: plan ${perm.mkString("")} == brute force") {
        val preds = Vector(Predicate(0, 1, 0, PredOp.Lt), Predicate(1, 2, 0, PredOp.Lt))
        val p =
          if (kind == "seq") Pattern.seq(n, 12, preds)
          else Pattern.conj(n, 12, preds)
        val evs = BruteForce.randomStream(n, 80, seed * 100 + perms.indexOf(perm))
        val eng = new OrderEngine(p, OrderPlan(perm))
        assert(BruteForce.runEngine(eng, evs) == BruteForce.matches(p, evs))
      }
    }
  }

  for (seed <- 1 to 4) {
    test(s"n=4 SEQ with predicates, lazy plan == brute force (seed=$seed)") {
      val p = Pattern.seq(4, 15, Vector(
        Predicate(0, 1, 0, PredOp.Lt), Predicate(1, 2, 0, PredOp.Lt),
        Predicate(2, 3, 0, PredOp.Lt)))
      val evs = BruteForce.randomStream(4, 120, seed)
      for (plan <- Seq(Vector(3, 2, 1, 0), Vector(1, 3, 0, 2), Vector(0, 1, 2, 3))) {
        val eng = new OrderEngine(p, OrderPlan(plan))
        assert(BruteForce.runEngine(eng, evs) == BruteForce.matches(p, evs),
          s"plan $plan diverged")
      }
    }
  }

  test("pruning keeps results identical on long streams") {
    val p = Pattern.seq(3, 10)
    val evs = BruteForce.randomStream(3, 600, 9) // 600 pattern events: the engine prunes 4 times
    val eng = new OrderEngine(p, OrderPlan(Vector(2, 0, 1)))
    assert(BruteForce.runEngine(eng, evs) == BruteForce.matches(p, evs))
  }

  test("partial-match count depends on the plan order (the paper's premise)") {
    // Type 0 frequent, type 2 rare: processing rare-first creates fewer PMs.
    val rnd = new scala.util.Random(5)
    val evs = Vector.tabulate(400) { i =>
      val t = { val u = rnd.nextDouble(); if (u < 0.7) 0 else if (u < 0.95) 1 else 2 }
      Event(i, i, t, rnd.nextDouble(), 0)
    }
    val p = Pattern.seq(3, 30)
    val eager = new OrderEngine(p, OrderPlan(Vector(0, 1, 2)))
    val lazy_ = new OrderEngine(p, OrderPlan(Vector(2, 1, 0)))
    val m1 = BruteForce.runEngine(eager, evs)
    val m2 = BruteForce.runEngine(lazy_, evs)
    assert(m1 == m2)
    assert(lazy_.partialMatchesCreated < eager.partialMatchesCreated,
      s"lazy=${lazy_.partialMatchesCreated} eager=${eager.partialMatchesCreated}")
  }

  test("single-position pattern emits every event of that type") {
    val p = Pattern.seq(1, 10)
    val eng = new OrderEngine(p, OrderPlan(Vector(0)))
    val evs = Seq(ev(0, 0), ev(1, 0), ev(2, 5).copy(etype = 5))
    assert(BruteForce.runEngine(eng, evs) == Set(Vector(0L), Vector(1L)))
  }
}
