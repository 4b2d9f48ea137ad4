package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.BenchHarness
import repro.harness.BenchHarness.{stocks, traffic}
import repro.spark.{AlgoKind, DecisionKind}

/** Figure 5: throughput of the invariant-based method as a function of the
  * pattern size and the invariant distance d, for all four dataset×algorithm
  * combinations. Expected shape (paper §5.2): an intermediate d_opt > 0
  * consistently beats both d = 0 (over-adapting to noise) and large d
  * (missed changes).
  */
class Fig5DSweepBench extends AnyFunSuite {

  private val dValues = Seq(0.0, 0.05, 0.1, 0.2, 0.5)
  private val lengths = Seq(3, 5)
  private val n = BenchDefaults.nEvents

  private def invariants(algo: AlgoKind, d: Seq[Double]): Seq[DecisionKind] =
    d.map(DecisionKind.Invariant(_, BenchHarness.k(algo)))

  private def sweep(ds: BenchHarness.DatasetSpec, algo: AlgoKind, label: String): Unit = {
    val rows = BenchHarness.table(ds, algo, lengths, invariants(algo, dValues), n)
    BenchHarness.printTable(s"Fig5 $label: throughput vs d", rows)
    // Structural check, not a timing assertion: every cell ran the full
    // stream and the match sets agree across d (paired streams).
    assert(rows.forall(_.events == n))
    lengths.foreach { len =>
      assert(rows.filter(_.patternLen == len).map(_.matches).distinct.size == 1)
    }
  }

  test("Fig5(a) traffic x greedy d-sweep") {
    sweep(traffic, AlgoKind.Greedy, "traffic/greedy")
  }
  test("Fig5(b) traffic x zstream d-sweep") {
    sweep(traffic, AlgoKind.ZStream, "traffic/zstream")
  }
  test("Fig5(c) stocks x greedy d-sweep") {
    sweep(stocks, AlgoKind.Greedy, "stocks/greedy")
  }
  test("Fig5(d) stocks x zstream d-sweep") {
    sweep(stocks, AlgoKind.ZStream, "stocks/zstream")
  }

  test("reoptimization count decreases monotonically-ish with d") {
    // Higher d must not trigger more replans than d=0 on the same stream.
    // table yields its rows in the order of the decisions.
    val Seq(atD0, atD05) = BenchHarness.table(traffic, AlgoKind.Greedy, Seq(4),
      invariants(AlgoKind.Greedy, Seq(0.0, 0.5)), 20000).map(_.reoptimizations): @unchecked
    assert(atD05 <= atD0)
  }
}
