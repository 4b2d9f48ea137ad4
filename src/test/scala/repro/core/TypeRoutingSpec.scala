package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.engine.{OrderEngine, TreeEngine}
import repro.core.plan.{OrderPlan, TreePlan}
import repro.core.stats.StatisticsMonitor
import repro.spark.{AlgoKind, Cep, CepConfig, DecisionKind}

/** Events are routed by their type to the pattern position that expects it,
  * whatever the type ids: here the pattern's types are not 0..n-1, and the
  * stream also carries the foreign types 0, 1 and 2.
  */
class TypeRoutingSpec extends AnyFunSuite {

  private val types = Vector(1000, -7, 42)
  private val preds = Vector(Predicate(0, 1, 0, PredOp.Lt), Predicate(1, 2, 1, PredOp.Gt))

  /** ts = index; each event's type is drawn by `weights` over `types ++ (0, 1, 2)`. */
  private def stream(count: Int, seed: Long, weights: Vector[Double]): Vector[Event] = {
    val all = types ++ Vector(0, 1, 2)
    val rnd = new scala.util.Random(seed)
    Vector.tabulate(count) { i =>
      var u = rnd.nextDouble(); var t = 0
      while (t < all.length - 1 && u >= weights(t)) { u -= weights(t); t += 1 }
      Event(i.toLong, i.toLong, all(t), rnd.nextDouble() * 10, rnd.nextDouble() * 10)
    }
  }

  private val uniform = Vector.fill(6)(1.0 / 6)

  for (kind <- Seq(PatternKind.Sequence, PatternKind.Conjunction)) {
    val p = Pattern(kind, types, preds, 8)

    test(s"$kind: order and tree engines match brute force on non-identity type ids") {
      val evs = stream(900, 3, uniform)
      val expected = BruteForce.matches(p, evs)
      assert(expected.nonEmpty)
      for (order <- (0 until 3).permutations.map(_.toVector))
        assert(BruteForce.runEngine(new OrderEngine(p, OrderPlan(order)), evs) == expected, s"$order")
      for (shape <- BruteForce.allTrees(0, 2))
        assert(BruteForce.runEngine(new TreeEngine(p, TreePlan(shape)), evs) == expected, s"$shape")
    }

    test(s"$kind: the adaptive loop matches brute force on non-identity type ids") {
      val evs = stream(3000, 4, uniform)
      val expected = BruteForce.matches(p, evs)
      for (algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)) {
        val eng = Cep.makeEngine(p, CepConfig(algo, DecisionKind.Unconditional, statPeriod = 20))
        val got = evs.flatMap(e => eng.onEvent(e).map(_.map(_.id).toVector)).toSet
        assert(got == expected, s"$algo")
        assert(eng.counters.events == evs.count(e => types.contains(e.etype)))
        assert(eng.counters.replacements > 0, s"$algo: the plan should change at least once")
      }
    }
  }

  test("snapshot rates land on the positions of their types") {
    val p = Pattern(PatternKind.Sequence, types, preds, 50)
    val weights = Vector(0.4, 0.1, 0.2, 0.1, 0.1, 0.1)
    val mon = new StatisticsMonitor(p, statWindow = 2000)
    val evs = stream(6000, 5, weights)
    evs.foreach(mon.observe)
    assert(mon.observedCount == evs.count(e => types.contains(e.etype)))
    val s = mon.snapshot(evs.last.ts)
    (0 until 3).foreach { q =>
      assert(math.abs(s.rate(q) - weights(q)) < 0.05, s"position $q: $s")
    }
  }
}
