package repro.core.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.plan.{OrderPlan, TreePlan}

class EngineSpec extends AnyFunSuite {

  /** The pattern over `positions` (kept in position order) with the
    * predicates among them.
    */
  private def subPattern(p: Pattern, positions: Seq[Int]): Pattern = {
    val kept = positions.sorted
    val at = kept.zipWithIndex.toMap
    val preds = p.predicates.collect {
      case pr if at.contains(pr.i) && at.contains(pr.j) => pr.copy(i = at(pr.i), j = at(pr.j))
    }
    Pattern(p.kind, kept.map(p.types).toVector, preds, p.window)
  }

  /** Valid sub-matches summed over the counted nodes' position sets. */
  private def subMatches(p: Pattern, evs: Seq[Event], nodes: Seq[Seq[Int]]): Long =
    nodes.map(ps => BruteForce.matches(subPattern(p, ps), evs).size.toLong).sum

  test("partialMatchesCreated counts the valid sub-matches of every counted node (random SEQ/AND, n = 2-4, every plan)") {
    val rnd = new scala.util.Random(23)
    for (conj <- Seq(false, true); n <- 2 to 4; _ <- 1 to 4) {
      val preds = Vector.fill(rnd.nextInt(n + 2)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      val window = 3L + rnd.nextInt(10)
      val p = if (conj) Pattern.conj(n, window, preds) else Pattern.seq(n, window, preds)
      // One type outside the pattern; 300 events, so the engines prune.
      val evs = BruteForce.randomStream(n + 1, 300, rnd.nextLong())
      for (order <- (0 until n).permutations.map(_.toVector)) {
        val eng = new OrderEngine(p, OrderPlan(order))
        BruteForce.runEngine(eng, evs)
        assert(eng.partialMatchesCreated == subMatches(p, evs, (1 to n).map(order.take)),
          s"$p plan ${OrderPlan(order)}")
      }
      for (shape <- BruteForce.allTrees(0, n - 1)) {
        val eng = new TreeEngine(p, TreePlan(shape))
        BruteForce.runEngine(eng, evs)
        val nodes = shape.nodesBottomUp.map(t => t.lo to t.hi)
        assert(eng.partialMatchesCreated == subMatches(p, evs, nodes), s"$p plan ${TreePlan(shape)}")
      }
    }
  }

  /** Random SEQ and AND patterns over `ns`, four per kind and length, each
    * run by every plan of both kinds with random `[from, until)` bounds on
    * a stream of `count` events with tied ts.
    */
  private def checkOwnership(seed: Long, ns: Seq[Int], count: Int): Unit = {
    val rnd = new scala.util.Random(seed)
    for (conj <- Seq(false, true); n <- ns; _ <- 1 to 4) {
      val preds = if (n == 1) Vector.empty else Vector.fill(rnd.nextInt(n + 1)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      val window = 3L + rnd.nextInt(8)
      val p = if (conj) Pattern.conj(n, window, preds) else Pattern.seq(n, window, preds)
      // ts advances by 0 or 1 per event, so the bounds often tie an event's ts.
      var ts = 0L
      val evs = Vector.tabulate(count) { i =>
        ts += rnd.nextInt(2)
        Event(i.toLong, ts, rnd.nextInt(n + 1), rnd.nextDouble() * 10, rnd.nextDouble() * 10)
      }
      val tsOf = evs.map(e => e.id -> e.ts).toMap
      val all = BruteForce.matches(p, evs)
      val engines = (0 until n).permutations.map(o => new OrderEngine(p, OrderPlan(o.toVector))).toVector ++
        BruteForce.allTrees(0, n - 1).map(shape => new TreeEngine(p, TreePlan(shape)))
      for (eng <- engines) {
        val from = rnd.nextLong(ts + 2) - 1
        val until = from + rnd.nextLong(ts + 2 - from)
        eng.from = from
        eng.until = until
        val want = all.filter { m => val first = m.map(tsOf).min; first >= from && first < until }
        val out = scala.collection.mutable.ArrayBuffer.empty[Array[Event]]
        evs.foreach(eng.onEvent(_, out))
        val got = out.map(_.map(_.id).toVector)
        assert(got.size == want.size && got.toSet == want, s"$p [$from, $until)")
      }
    }
  }

  test("an engine emits exactly the matches whose earliest ts lies in [from, until) (random SEQ/AND, n = 1-4, tied ts, both plan kinds)") {
    checkOwnership(71, 1 to 4, 300)
  }

  test("owned matches lie in [from, until) at n = 5 (random SEQ/AND, 600 events)") {
    checkOwnership(73, Seq(5), 600)
  }
}
