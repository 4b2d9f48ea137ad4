package repro.core.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.plan.{InnerNode, LeafNode, OrderPlan, TreePlan}

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

  /** `count` events of random types below `nTypes`, whose ts advance by 0 or 1 per event. */
  private def tiedStream(rnd: scala.util.Random, nTypes: Int, count: Int): Vector[Event] = {
    var ts = 0L
    Vector.tabulate(count) { i =>
      ts += rnd.nextInt(2)
      Event(i.toLong, ts, rnd.nextInt(nTypes), rnd.nextDouble() * 10, rnd.nextDouble() * 10)
    }
  }

  /** Random SEQ and AND patterns over `ns`, four per kind and length, each
    * run by every plan of both kinds on a stream of `count` events of `n + 1`
    * types (one outside the pattern), so that the engines prune. With `tied`
    * the ts advance by 0 or 1 per event, else ts = index. Every engine's
    * `partialMatchesCreated` must equal the valid sub-matches summed over its
    * counted nodes' position sets.
    */
  private def checkPartialMatches(seed: Long, ns: Seq[Int], count: Int, tied: Boolean): Unit = {
    val rnd = new scala.util.Random(seed)
    for (conj <- Seq(false, true); n <- ns; _ <- 1 to 4) {
      val preds = Vector.fill(rnd.nextInt(n + 2)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      val window = 3L + rnd.nextInt(10)
      val p = if (conj) Pattern.conj(n, window, preds) else Pattern.seq(n, window, preds)
      val evs = if (tied) tiedStream(rnd, n + 1, count) else BruteForce.randomStream(n + 1, count, rnd.nextLong())
      // Valid sub-matches per position set, each set counted once.
      val subMatches = scala.collection.mutable.Map.empty[Set[Int], Long]
      def counted(nodes: Seq[Seq[Int]]): Long = nodes.map { ps =>
        subMatches.getOrElseUpdate(ps.toSet, BruteForce.matches(subPattern(p, ps), evs).size.toLong)
      }.sum
      for (order <- (0 until n).permutations.map(_.toVector)) {
        val eng = new OrderEngine(p, OrderPlan(order))
        BruteForce.runEngine(eng, evs)
        assert(eng.partialMatchesCreated == counted((1 to n).map(order.take)), s"$p plan ${OrderPlan(order)}")
      }
      for (shape <- BruteForce.allTrees(0, n - 1)) {
        val eng = new TreeEngine(p, TreePlan(shape))
        BruteForce.runEngine(eng, evs)
        val nodes = shape.nodesBottomUp.map(t => t.lo to t.hi)
        assert(eng.partialMatchesCreated == counted(nodes), s"$p plan ${TreePlan(shape)}")
      }
    }
  }

  test("partialMatchesCreated counts the valid sub-matches of every counted node (random SEQ/AND, n = 2-4, every plan)") {
    checkPartialMatches(23, 2 to 4, 300, tied = false)
  }

  test("partialMatchesCreated counts the valid sub-matches on tied ts (random SEQ/AND, n = 2-4, every plan)") {
    checkPartialMatches(29, 2 to 4, 300, tied = true)
  }

  test("partialMatchesCreated counts the valid sub-matches at n = 5 (random SEQ/AND, tied and untied ts, every plan)") {
    checkPartialMatches(31, Seq(5), 400, tied = false)
    checkPartialMatches(37, Seq(5), 400, tied = true)
  }

  test("an engine rejects an event whose ts is below the last one of a pattern type") {
    val p = Pattern.seq(2, 10)
    for (eng <- Seq(new OrderEngine(p, OrderPlan(Vector(1, 0))),
        new TreeEngine(p, TreePlan(InnerNode(LeafNode(0), LeafNode(1)))))) {
      val out = scala.collection.mutable.ArrayBuffer.empty[Array[Event]]
      // An event at the last ts is accepted, and one of a type outside the
      // pattern is ignored whatever its ts.
      Seq(Event(0, 5, 0, 0, 0), Event(1, 6, 1, 0, 0), Event(2, 6, 0, 0, 0), Event(3, 2, 2, 0, 0))
        .foreach(eng.onEvent(_, out))
      val e = intercept[IllegalArgumentException](eng.onEvent(Event(4, 5, 1, 0, 0), out))
      assert(e.getMessage.contains("ts 5") && e.getMessage.contains("ts 6"), e.getMessage)
      assert(out.map(_.map(_.id).toVector) == Seq(Vector(0L, 1L)))
    }
  }

  test("an engine rejects a plan that does not use each pattern position exactly once") {
    val p3 = Pattern.seq(3, 10)
    val cases = Seq(
      p3 -> OrderPlan(Vector(0, 1, 5)),
      p3 -> OrderPlan(Vector(-1, 0, 1)),
      p3 -> OrderPlan(Vector(0, 1)),
      p3 -> OrderPlan(Vector()),
      p3 -> TreePlan(InnerNode(LeafNode(2), LeafNode(3))),
      Pattern.seq(1, 10) -> OrderPlan(Vector(5)))
    for ((p, plan) <- cases) {
      val e = intercept[IllegalArgumentException](new Engine(p, plan))
      assert(e.getMessage.contains(plan.toString), e.getMessage)
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
      // The bounds often tie an event's ts.
      val evs = tiedStream(rnd, n + 1, count)
      val ts = evs.last.ts
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
