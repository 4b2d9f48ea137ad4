package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.spark.{AlgoKind, DecisionKind}

/** The deterministic counter claims of Figs 5–9 (paper §5.2), on small fixed
  * cells of the method-comparison table: every dataset × algorithm panel at
  * pattern lengths 3 and 4, with the harness's methods. Each cell also runs
  * the invariant method at d = 0 and d = 0.5 for Fig 5's claim. Counters
  * depend only on the seed, so these claims hold exactly, unlike the
  * wall-clock claims, which stay in `bench/`; one pass per method suffices.
  */
class FigureCountersSpec extends AnyFunSuite {

  private val Events = 8000

  private def fruitless(r: BenchHarness.Row): Long = r.plannerRuns - r.reoptimizations

  for {
    ds <- Seq(BenchHarness.traffic, BenchHarness.stocks)
    algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)
    len <- Seq(3, 4)
  } test(s"counter claims of Figs 6-9: ${ds.name} x $algo, length $len") {
    val in = new BenchHarness.CellInput(ds, len, Events)
    def pass(dk: DecisionKind) = BenchHarness.pass(in, algo, dk)
    val rows = BenchHarness.methods(algo).map(pass)
    val Seq(static_, uncond, thr, inv) = rows: @unchecked
    assert(inv.plannerRuns <= thr.plannerRuns && thr.plannerRuns <= uncond.plannerRuns,
      s"A runs: invariant ${inv.plannerRuns}, threshold ${thr.plannerRuns}, unconditional ${uncond.plannerRuns}")
    assert(inv.reoptimizations <= uncond.reoptimizations,
      s"replacements: invariant ${inv.reoptimizations}, unconditional ${uncond.reoptimizations}")
    assert(fruitless(inv) <= fruitless(thr),
      s"fruitless A runs: invariant ${fruitless(inv)}, threshold ${fruitless(thr)}")
    assert(static_.reoptimizations == 0 && static_.plannerRuns == 0)
    assert(rows.map(_.matches).distinct.size == 1, rows.map(r => r.method -> r.matches))

    // Fig 5: a wider distance d needs no more reoptimizations.
    val sweep = Seq(0.0, 0.5).map(d => pass(DecisionKind.Invariant(d, BenchHarness.k(algo))))
    val byD = Seq(sweep(0), inv, sweep(1)).map(_.reoptimizations) // d = 0, 0.2, 0.5
    assert(byD == byD.sorted.reverse, s"reoptimizations at d = 0, 0.2, 0.5: $byD")
  }
}
