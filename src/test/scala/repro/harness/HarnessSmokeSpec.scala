package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.spark.{AlgoKind, DecisionKind}

/** Small-scale smoke of the figure harness (full scale runs in bench/). */
class HarnessSmokeSpec extends AnyFunSuite {

  test("traffic pattern carries decline predicates on both attributes") {
    val p = BenchHarness.trafficPattern(4, 300)
    assert(p.n == 4)
    assert(p.predicates.size == 2 * 3)
    assert(p.predicatePairs == Vector((0, 1), (1, 2), (2, 3)))
  }

  test("stock pattern carries ascending-diff predicates") {
    val p = BenchHarness.stockPattern(3, 250)
    assert(p.predicates.size == 2)
  }

  test("runOne produces sane counters on a small run") {
    val r = BenchHarness.runOne(BenchHarness.traffic, len = 3, AlgoKind.Greedy,
      DecisionKind.Invariant(0.1, 1), nEvents = 3000)
    assert(r.events == 3000)
    assert(r.throughputEvS > 0)
    assert(r.gainVsStatic.isNaN)
    assert(r.plannerRuns >= r.reoptimizations)
  }

  test("methodComparison emits one row per (length, method) with paired gains") {
    val rows = BenchHarness.methodComparison(BenchHarness.stocks, AlgoKind.Greedy,
      lengths = Seq(3), nEvents = 2000)
    assert(rows.map(_.method) == BenchHarness.methods(AlgoKind.Greedy))
    val static_ = rows.find(_.method == DecisionKind.Static).get
    assert(math.abs(static_.gainVsStatic - 1.0) < 1e-9)
    assert(rows.forall(_.events == 2000))
    // Same seed → identical streams → identical match counts across methods.
    assert(rows.map(_.matches).distinct.size == 1)
  }

  test("dSweep emits one row per (length, d)") {
    val rows = BenchHarness.dSweep(BenchHarness.traffic, AlgoKind.Greedy,
      lengths = Seq(3), dValues = Seq(0.0, 0.3), nEvents = 2000)
    assert(rows.map(_.method) == Seq(0.0, 0.3).map(DecisionKind.Invariant(_, BenchHarness.k(AlgoKind.Greedy))))
    assert(rows.map(_.matches).distinct.size == 1)
  }

  test("runOne keeps the deterministic counters and labels of one pass") {
    // FigureCountersSpec reads its counters from one pass per method.
    val in = new BenchHarness.CellInput(BenchHarness.stocks, 3, 2000)
    def fields(r: BenchHarness.Row) =
      (r.dataset, r.algo, r.method, r.patternLen, r.events, r.matches, r.reoptimizations, r.plannerRuns)
    for (algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream); dk <- BenchHarness.methods(algo))
      assert(fields(BenchHarness.runOne(BenchHarness.stocks, 3, algo, dk, 2000)) ==
        fields(BenchHarness.pass(in, algo, dk)), s"$algo $dk")
  }
}
