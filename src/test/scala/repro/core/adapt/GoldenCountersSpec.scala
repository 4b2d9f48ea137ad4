package repro.core.adapt

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.BenchHarness
import repro.spark.{AlgoKind, Cep, CepConfig}

/** Pins the adaptive loop's deterministic counters on small traffic and
  * stocks runs, so that a change meant to keep behaviour can show it did.
  * A change that alters these counters on purpose updates the table and
  * states why. The cells are the figures' methods (`BenchHarness.methods`),
  * so retuning a method's t or d also needs new cells.
  */
class GoldenCountersSpec extends AnyFunSuite {

  /** Per pattern length and cell: matches, partialMatchesCreated,
    * plannerRuns, replacements, fruitlessRuns, decisionEvals, checksPerformed.
    * Length 6 is where ZStream trees are deepest and most engines overlap.
    */
  private val golden: Map[Int, Map[String, Vector[Long]]] = Map(
    4 -> Map(
      "traffic Greedy Static" -> Vector(3759, 38470, 0, 0, 0, 78, 0),
      "traffic Greedy Unconditional" -> Vector(3759, 18036, 78, 12, 66, 78, 0),
      "traffic Greedy Threshold(0.1)" -> Vector(3759, 15620, 22, 7, 15, 78, 515),
      "traffic Greedy Invariant(0.2,1)" -> Vector(3759, 17637, 9, 9, 0, 78, 223),
      "traffic ZStream Static" -> Vector(3759, 14643, 0, 0, 0, 78, 0),
      "traffic ZStream Unconditional" -> Vector(3759, 24990, 78, 12, 66, 78, 0),
      "traffic ZStream Threshold(0.1)" -> Vector(3759, 19895, 22, 6, 16, 78, 515),
      "traffic ZStream Invariant(0.2,3)" -> Vector(3759, 19630, 6, 6, 0, 78, 222),
      "stocks Greedy Static" -> Vector(361222, 552928, 0, 0, 0, 78, 0),
      "stocks Greedy Unconditional" -> Vector(361222, 564705, 78, 11, 67, 78, 0),
      "stocks Greedy Threshold(0.1)" -> Vector(361222, 541159, 29, 5, 24, 78, 511),
      "stocks Greedy Invariant(0.2,1)" -> Vector(361222, 540725, 1, 1, 0, 78, 232),
      "stocks ZStream Static" -> Vector(361222, 509690, 0, 0, 0, 78, 0),
      "stocks ZStream Unconditional" -> Vector(361222, 611006, 78, 17, 61, 78, 0),
      "stocks ZStream Threshold(0.1)" -> Vector(361222, 588095, 29, 12, 17, 78, 511),
      "stocks ZStream Invariant(0.2,3)" -> Vector(361222, 557272, 8, 8, 0, 78, 222),
    ),
    6 -> Map(
      "traffic Greedy Static" -> Vector(6, 14287, 0, 0, 0, 78, 0),
      "traffic Greedy Unconditional" -> Vector(6, 5084, 78, 18, 60, 78, 0),
      "traffic Greedy Threshold(0.1)" -> Vector(6, 5948, 18, 8, 10, 78, 797),
      "traffic Greedy Invariant(0.2,1)" -> Vector(6, 5167, 6, 6, 0, 78, 375),
      "traffic ZStream Static" -> Vector(6, 9140, 0, 0, 0, 78, 0),
      "traffic ZStream Unconditional" -> Vector(6, 11213, 78, 14, 64, 78, 0),
      "traffic ZStream Threshold(0.1)" -> Vector(6, 7084, 18, 3, 15, 78, 797),
      "traffic ZStream Invariant(0.2,3)" -> Vector(6, 9216, 1, 1, 0, 78, 694),
      "stocks Greedy Static" -> Vector(54726, 228957, 0, 0, 0, 78, 0),
      "stocks Greedy Unconditional" -> Vector(54726, 333370, 78, 38, 40, 78, 0),
      "stocks Greedy Threshold(0.1)" -> Vector(54726, 297422, 20, 14, 6, 78, 809),
      "stocks Greedy Invariant(0.2,1)" -> Vector(54726, 290268, 11, 10, 1, 78, 360),
      "stocks ZStream Static" -> Vector(54726, 257510, 0, 0, 0, 78, 0),
      "stocks ZStream Unconditional" -> Vector(54726, 291789, 78, 31, 47, 78, 0),
      "stocks ZStream Threshold(0.1)" -> Vector(54726, 257040, 20, 13, 7, 78, 809),
      "stocks ZStream Invariant(0.2,3)" -> Vector(54726, 249678, 9, 9, 0, 78, 632),
    ),
  )

  private val Events = 5000
  private val Seed = 7L

  for {
    (len, cells) <- golden
    ds <- Seq(BenchHarness.traffic, BenchHarness.stocks)
    algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)
    dk <- BenchHarness.methods(algo)
  } {
    val cell = s"${ds.name} $algo $dk"
    // The length-4 cells were the first and keep their names.
    test(s"counters unchanged: $cell" + (if (len == 4) "" else s", length $len")) {
      val eng = Cep.makeEngine(ds.pattern(len), CepConfig(algo, dk))
      var emitted = 0L
      ds.gen(len, Events, Seed).foreach(e => emitted += eng.onEvent(e).length)
      val c = eng.counters
      assert(emitted == c.matches)
      val got = Vector(c.matches, eng.partialMatchesCreated, c.plannerRuns, c.replacements,
        c.fruitlessRuns, c.decisionEvals, eng.decision.checksPerformed)
      assert(got == cells(cell))
    }
  }
}
