package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.spark.{AlgoKind, DecisionKind}

/** Small-scale smoke of the figure harness (full scale runs in bench/). */
class HarnessSmokeSpec extends AnyFunSuite {

  test("traffic pattern carries decline predicates on both attributes") {
    val p = BenchHarness.trafficPattern(4)
    assert(p.n == 4 && p.window == 300)
    assert(p.predicates.size == 2 * 3)
    assert(p.predicatePairs == Vector((0, 1), (1, 2), (2, 3)))
  }

  test("stock pattern carries ascending-diff predicates") {
    val p = BenchHarness.stockPattern(3)
    assert(p.window == 150)
    assert(p.predicates.size == 2)
  }

  test("runOne produces sane counters on a small run") {
    val in = new BenchHarness.CellInput(BenchHarness.traffic, 3, 3000)
    val r = BenchHarness.runOne(in, AlgoKind.Greedy, DecisionKind.Invariant(0.1, 1))
    assert(r.events == 3000)
    assert(r.throughputEvS > 0)
    assert(r.gainVsStatic.isNaN)
    assert(r.plannerRuns >= r.reoptimizations)
  }

  test("table gives one row per (length, method) with gains over Static") {
    val rows = BenchHarness.table(BenchHarness.stocks, AlgoKind.Greedy,
      lengths = Seq(3, 4), BenchHarness.methods(AlgoKind.Greedy), nEvents = 2000)
    assert(rows.map(r => (r.patternLen, r.method)) ==
      Seq(3, 4).flatMap(len => BenchHarness.methods(AlgoKind.Greedy).map((len, _))))
    assert(rows.forall(_.events == 2000))
    for (len <- Seq(3, 4)) {
      val cell = rows.filter(_.patternLen == len)
      val static_ = cell.find(_.method == DecisionKind.Static).get
      cell.foreach(r => assert(math.abs(r.gainVsStatic - r.throughputEvS / static_.throughputEvS) < 1e-9))
      // Same seed → identical streams → identical match counts across methods.
      assert(cell.map(_.matches).distinct.size == 1)
    }
  }

  test("table leaves gains unset without a Static row (Fig 5's d sweep)") {
    val ds = Seq(0.0, 0.3).map(DecisionKind.Invariant(_, BenchHarness.k(AlgoKind.Greedy)))
    val rows = BenchHarness.table(BenchHarness.traffic, AlgoKind.Greedy, lengths = Seq(3), ds, nEvents = 2000)
    assert(rows.map(_.method) == ds)
    assert(rows.forall(_.gainVsStatic.isNaN))
    assert(rows.map(_.matches).distinct.size == 1)
  }

  test("runOne keeps the deterministic counters and labels of one pass") {
    // FigureCountersSpec reads its counters from one pass per method.
    val in = new BenchHarness.CellInput(BenchHarness.stocks, 3, 2000)
    def fields(r: BenchHarness.Row) =
      (r.dataset, r.algo, r.method, r.patternLen, r.events, r.matches, r.reoptimizations, r.plannerRuns)
    for (algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream); dk <- BenchHarness.methods(algo))
      assert(fields(BenchHarness.runOne(in, algo, dk)) == fields(BenchHarness.pass(in, algo, dk)), s"$algo $dk")
  }
}
